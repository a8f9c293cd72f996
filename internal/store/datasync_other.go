//go:build !linux

package store

import "os"

// datasync makes f's written data durable; without fdatasync(2) that
// is a full fsync.
func datasync(f *os.File) error { return f.Sync() }
