// Package fsio abstracts the filesystem surface the generation store's
// durability paths go through — file creation, writes, fsync, rename,
// removal — behind a small interface with a pass-through real
// implementation (OS) and a fault-injecting one (Injector).
//
// The point is dependability testing: every write/sync/rename boundary
// in internal/store is a potential crash or failure point, and routing
// them through FS lets tests fail the Nth operation, return ENOSPC,
// tear a write short, fail only fsyncs, or snapshot the directory after
// each mutating op to explore crash recovery exhaustively
// (ALICE/CrashMonkey style) — without mocking the store itself or
// needing a real faulty disk.
package fsio

import (
	"io"
	"os"
)

// File is the subset of *os.File the store reads and writes through.
// *os.File implements it directly.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	Sync() error
	Truncate(size int64) error
	Stat() (os.FileInfo, error)
	Name() string
}

// FS is the filesystem surface the store uses. Methods mirror the os
// package functions of the same name.
type FS interface {
	// OpenFile opens name with the given flags; files opened for
	// writing (O_WRONLY/O_RDWR/O_CREATE/O_TRUNC/O_APPEND) count as
	// mutating operations under an Injector.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Open opens name read-only (directories included — the store syncs
	// directories through the returned handle).
	Open(name string) (File, error)
	Create(name string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	RemoveAll(path string) error
	MkdirAll(path string, perm os.FileMode) error
	ReadFile(name string) ([]byte, error)
	WriteFile(name string, data []byte, perm os.FileMode) error
	ReadDir(name string) ([]os.DirEntry, error)
	Stat(name string) (os.FileInfo, error)
}

// OS is the pass-through real filesystem.
type OS struct{}

func (OS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (OS) Open(name string) (File, error)   { return os.Open(name) }
func (OS) Create(name string) (File, error) { return os.Create(name) }
func (OS) Rename(oldpath, newpath string) error {
	return os.Rename(oldpath, newpath)
}
func (OS) Remove(name string) error    { return os.Remove(name) }
func (OS) RemoveAll(path string) error { return os.RemoveAll(path) }
func (OS) MkdirAll(path string, perm os.FileMode) error {
	return os.MkdirAll(path, perm)
}
func (OS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
func (OS) WriteFile(name string, data []byte, perm os.FileMode) error {
	return os.WriteFile(name, data, perm)
}
func (OS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }
func (OS) Stat(name string) (os.FileInfo, error)      { return os.Stat(name) }

var _ FS = OS{}
