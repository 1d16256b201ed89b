// Package binio holds what the repository's binary files share: the error
// type of their decoders, and the directory sync of their writers. Its
// users are the TPAM snapshot container (internal/mmapio and the engine
// loader on top of it) and the TPAW write-ahead log (internal/ingest).
package binio

import (
	"errors"
	"fmt"
	"os"
)

// ErrBadSnapshot is wrapped by every decode failure caused by the bytes
// themselves — bad magic, unsupported version, truncation, structural
// inconsistency, or checksum mismatch. Loaders return it typed (test with
// errors.Is) and never partial state.
var ErrBadSnapshot = errors.New("bad snapshot")

// Errf builds an error wrapping ErrBadSnapshot.
func Errf(format string, args ...interface{}) error {
	return fmt.Errorf(format+": %w", append(args, ErrBadSnapshot)...)
}

// SyncDir fsyncs the directory dir, making the entries created, renamed or
// removed in it durable: a file's own fsync does not cover its name.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
