package store

import (
	"os"
	"syscall"
)

// datasync makes f's written data durable with fdatasync(2): an append
// needs the data and the new size on disk, not the timestamps fsync
// also writes.
func datasync(f *os.File) error {
	rc, err := f.SyscallConn()
	if err != nil {
		return err
	}
	if cerr := rc.Control(func(fd uintptr) {
		for {
			if err = syscall.Fdatasync(int(fd)); err != syscall.EINTR {
				return
			}
		}
	}); cerr != nil {
		return cerr
	}
	return err
}
