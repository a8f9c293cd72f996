package store

import (
	"fmt"
	"sync"
	"testing"
)

// TestTwoStoresShareOneDirectory: two stores over one directory, as
// hattc and a running hattd are, put concurrently and each serve the
// other's entries from disk; a third Open over the directory serves
// every entry.
func TestTwoStoresShareOneDirectory(t *testing.T) {
	const per = 24
	dir := t.TempDir()
	stores := make([]*Store, 2)
	for i := range stores {
		s, err := Open(4*per, dir)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = s
	}
	entryKey := func(owner, j int) Key { return key(fmt.Sprintf("owner%d-%d", owner, j)) }
	entry := testEntry(t, 3)

	var wg sync.WaitGroup
	for i, s := range stores {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				s.Put(entryKey(i, j), entry)
			}
		}()
	}
	wg.Wait()

	misses := make([]int, len(stores))
	for i, s := range stores {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				if _, ok := s.Get(entryKey(1-i, j)); !ok {
					misses[i]++
				}
			}
		}()
	}
	wg.Wait()
	for i, s := range stores {
		if misses[i] != 0 {
			t.Errorf("store %d missed %d of the other store's %d entries", i, misses[i], per)
		}
		if st := s.Stats(); st.DiskHits != per || st.DiskWrites != per {
			t.Errorf("store %d stats = %+v, want %d disk hits and %d disk writes", i, st, per, per)
		}
	}

	third, err := Open(4*per, dir)
	if err != nil {
		t.Fatal(err)
	}
	for owner := range stores {
		for j := 0; j < per; j++ {
			got, ok := third.Get(entryKey(owner, j))
			if !ok {
				t.Fatalf("third store missed entry %d of store %d", j, owner)
			}
			if got.Method != "jw" || got.PredictedWeight != 7 || !got.Mapping.Majoranas[1].Equal(entry.Mapping.Majoranas[1]) {
				t.Fatalf("third store served a different entry: %+v", got)
			}
		}
	}
	if st := third.Stats(); st.DiskHits != 2*per || st.DiskErrors != 0 {
		t.Fatalf("third store stats = %+v, want %d disk hits and no disk errors", st, 2*per)
	}
}
