package store

// The disk seam (see wal.go): a WAL store's every file operation that
// changes the disk goes through its disk. Reads open files directly.

import (
	"os"
	"sync/atomic"

	"itag/internal/errs"
)

// FileOp names a file operation a FaultHook sees.
type FileOp uint8

// The file operations; a FaultHook sees a rename at its source path.
const (
	FileCreate FileOp = iota + 1 // create, or open for appending, a file to write
	FileWrite
	FileSync // a file, or a directory after a rename
	FileRename
	FileRemove
	FileTruncate
)

func (op FileOp) String() string {
	if op > FileTruncate {
		op = 0
	}
	return [...]string{"unknown", "create", "write", "sync", "rename", "remove", "truncate"}[op]
}

// FaultHook decides the fate of one file operation before a store makes it
// (n: a write's length). It may stall the operation by sleeping. A crash
// kills the store there as a dying process would: a write first puts down
// its first keep bytes, then the operation fails with ErrCrashed, and so
// does every later one of the store. A hook may run under the WAL's file
// lock: it must not write to the store it serves.
type FaultHook func(op FileOp, path string, n int) (crash bool, keep int)

// ErrCrashed is the error of the file operation a FaultHook crashed, and of
// every later one of that store.
var ErrCrashed error = errs.New(errs.ComponentStore, errs.CategoryIO, "simulated crash (fault hook)")

// disk is a store's one way to change files: the OS, behind its FaultHook.
type disk struct {
	hook    FaultHook
	crashed atomic.Bool
}

// allow consults the hook before op on path: ErrCrashed for a crash (this
// one, and how much of a write to put down, or an earlier one).
func (d *disk) allow(op FileOp, path string, n int) (keep int, err error) {
	if d.hook == nil {
		return 0, nil
	}
	if d.crashed.Load() {
		return 0, ErrCrashed
	}
	if crash, keep := d.hook(op, path, n); crash {
		d.crashed.Store(true)
		return min(max(keep, 0), n), ErrCrashed
	}
	return 0, nil
}

// do runs fn, an operation that writes no bytes, once the hook allows it.
func (d *disk) do(op FileOp, path string, fn func() error) error {
	if _, err := d.allow(op, path, 0); err != nil {
		return err
	}
	return fn()
}

// create opens path for writing, creating it; flag adds to O_CREATE|O_WRONLY.
func (d *disk) create(path string, flag int) (*diskFile, error) {
	if _, err := d.allow(FileCreate, path, 0); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|flag, 0o644)
	if err != nil {
		return nil, err
	}
	return &diskFile{File: f, d: d}, nil
}

func (d *disk) rename(from, to string) error {
	return d.do(FileRename, from, func() error { return os.Rename(from, to) })
}

func (d *disk) remove(path string) error {
	return d.do(FileRemove, path, func() error { return os.Remove(path) })
}

func (d *disk) truncate(path string, size int64) error {
	return d.do(FileTruncate, path, func() error { return os.Truncate(path, size) })
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable (best effort; some filesystems reject directory fsync).
func (d *disk) syncDir(dir string) {
	if f, err := os.Open(dir); err == nil {
		_ = d.do(FileSync, dir, f.Sync)
		_ = f.Close()
	}
}

// diskFile is a file its disk created, whose writes and syncs go through the
// disk's hook. Under a bufio.Writer a hook sees each flush as one write.
type diskFile struct {
	*os.File
	d *disk
}

func (f *diskFile) Write(p []byte) (int, error) {
	if keep, err := f.d.allow(FileWrite, f.Name(), len(p)); err != nil {
		n, _ := f.File.Write(p[:keep])
		return n, err
	}
	return f.File.Write(p)
}

func (f *diskFile) Sync() error {
	if _, err := f.d.allow(FileSync, f.Name(), 0); err != nil {
		return err
	}
	return f.File.Sync()
}
