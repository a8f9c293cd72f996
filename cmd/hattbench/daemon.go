package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one hattd process started by the benchmark.
type daemon struct {
	cmd      *exec.Cmd
	url      string
	copied   chan struct{} // closed once the stdout drain has finished
	stopOnce sync.Once
}

var listenLine = regexp.MustCompile(`listening on (\S+)`)

// startDaemon spawns hattd on an ephemeral loopback port with its disk
// tier at storeDir and GOMAXPROCS=procs, every other flag at its default,
// and returns once GET /v1/readyz answers 200.
func startDaemon(bin, storeDir string, procs int) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-store-dir", storeDir, "-log-level", "error")
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start hattd: %w", err)
	}
	d := &daemon{cmd: cmd, copied: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.copied)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if m := listenLine.FindStringSubmatch(sc.Text()); m != nil {
				addr <- m[1]
				break
			}
		}
		_, _ = io.Copy(io.Discard, out) // keep the pipe drained until exit
	}()
	select {
	case a := <-addr:
		d.url = "http://" + a
	case <-d.copied:
		d.stop()
		return nil, errors.New("hattd exited before printing its listen address")
	case <-time.After(10 * time.Second):
		d.stop()
		return nil, errors.New("hattd printed no listen address within 10s")
	}
	if err := d.awaitReady(10 * time.Second); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// awaitReady polls GET /v1/readyz until it answers 200.
func (d *daemon) awaitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	client := &http.Client{Timeout: limit}
	defer client.CloseIdleConnections()
	for {
		resp, err := client.Get(d.url + "/v1/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("hattd not ready within %s", limit)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM, waits for the drain, and kills the process if it
// has not exited within ten seconds. It returns once the process and the
// stdout drain have both ended; later calls do nothing.
func (d *daemon) stop() { d.stopOnce.Do(d.terminate) }

func (d *daemon) terminate() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		<-d.copied
		_ = d.cmd.Wait() // a non-zero exit after SIGTERM or SIGKILL is expected
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
}

// userHz is the kernel's USER_HZ, the unit of the CPU times in
// /proc/<pid>/stat; it is 100 on every Linux architecture Go targets.
const userHz = 100

// cpuSeconds is the daemon's user plus system CPU time so far.
func (d *daemon) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3, so
	// utime (field 14) and stime (field 15) are at offsets 11 and 12.
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return float64(utime+stime) / userHz, nil
}

// hostCPU reads the aggregate "cpu" line of /proc/stat: the jiffies this
// machine's CPUs spent running something (user, nice, system, irq and
// softirq) and the jiffies the hypervisor stole from them while they had
// something to run.
func hostCPU() (busy, steal uint64, err error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var v [8]uint64
	for j := range v {
		if v[j], err = strconv.ParseUint(fields[j+1], 10, 64); err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
	}
	// user nice system idle iowait irq softirq steal
	return v[0] + v[1] + v[2] + v[5] + v[6], v[7], nil
}

// peakRSSMB is the daemon's resident-set high-water mark (VmHWM) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// serverStats is the part of GET /v1/stats the benchmark reads.
type serverStats struct {
	Store struct {
		Hits       int64 `json:"hits"`
		Misses     int64 `json:"misses"`
		Puts       int64 `json:"puts"`
		DiskWrites int64 `json:"disk_writes"`
	} `json:"store"`
	Overload struct {
		ShedSync int64 `json:"shed_sync"`
	} `json:"overload"`
}

func fetchStats(ctx context.Context, client *http.Client, url string) (serverStats, error) {
	var st serverStats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("GET /v1/stats: %w", err)
	}
	return st, nil
}
