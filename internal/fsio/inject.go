package fsio

import (
	"os"
	"sync"
)

// Kind names one class of mutating filesystem operation.
type Kind uint8

const (
	OpCreate Kind = iota + 1
	OpOpenFile
	OpWrite
	OpSync
	OpTruncate
	OpRename
	OpRemove
	OpRemoveAll
	OpMkdirAll
	OpWriteFile
)

func (k Kind) String() string {
	switch k {
	case OpCreate:
		return "create"
	case OpOpenFile:
		return "openfile"
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpTruncate:
		return "truncate"
	case OpRename:
		return "rename"
	case OpRemove:
		return "remove"
	case OpRemoveAll:
		return "removeall"
	case OpMkdirAll:
		return "mkdirall"
	case OpWriteFile:
		return "writefile"
	}
	return "unknown"
}

// Op identifies one mutating operation as it reaches the Injector.
type Op struct {
	// N is the 1-based index of this operation among all mutating
	// operations the Injector has seen.
	N    int64
	Kind Kind
	// Path is the file the operation touches (the destination path for
	// renames).
	Path string
}

// Decision is what a decide callback returns for one operation.
type Decision struct {
	// Err, when non-nil, is injected: the operation is not performed
	// (beyond Torn bytes, below) and Err is returned to the caller.
	Err error
	// Torn applies to OpWrite and OpWriteFile when Err is set: the
	// first Torn bytes are written before the failure is reported — a
	// torn write. Zero (or negative) writes nothing.
	Torn int
}

// Injector wraps an FS and routes every mutating operation through a
// decide callback that can fail it, while counting operations and
// optionally observing each one after it lands (the hook crash-point
// exploration snapshots the directory from).
//
// Mutating operations — Create, write-mode OpenFile, Write, Sync,
// Truncate, Rename, Remove, RemoveAll, MkdirAll, WriteFile — are
// serialized under an internal mutex: decide, the operation itself and
// the after hook run as one atomic step, so a concurrent observer (or
// a crash snapshot) always sees a directory between operations, never
// mid-operation. Read-only operations pass through uncounted and
// unserialized. The decide and after callbacks run under the mutex and
// must not call back into the Injector.
type Injector struct {
	fs FS

	mu       sync.Mutex
	ops      int64
	injected int64
	decide   func(Op) Decision
	after    func(Op)
}

// NewInjector wraps fs (typically OS{}) in an Injector that passes
// everything through until a decide callback is set.
func NewInjector(fs FS) *Injector {
	return &Injector{fs: fs}
}

// SetDecide installs (or, with nil, clears) the fault decision
// callback. Safe to call concurrently with operations — the switch
// takes effect atomically between them.
func (i *Injector) SetDecide(fn func(Op) Decision) {
	i.mu.Lock()
	i.decide = fn
	i.mu.Unlock()
}

// SetAfter installs (or clears) the post-operation observer, called
// after every mutating operation — performed or injected — under the
// Injector's mutex.
func (i *Injector) SetAfter(fn func(Op)) {
	i.mu.Lock()
	i.after = fn
	i.mu.Unlock()
}

// Ops returns the number of mutating operations seen so far.
func (i *Injector) Ops() int64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.ops
}

// Injected returns the number of operations failed by decide.
func (i *Injector) Injected() int64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.injected
}

// FailOp returns a decide callback that fails exactly the n-th
// mutating operation with err.
func FailOp(n int64, err error) func(Op) Decision {
	return func(op Op) Decision {
		if op.N == n {
			return Decision{Err: err}
		}
		return Decision{}
	}
}

// FailKind returns a decide callback that fails every operation of the
// given kind with err (e.g. fail only fsyncs).
func FailKind(kind Kind, err error) func(Op) Decision {
	return func(op Op) Decision {
		if op.Kind == kind {
			return Decision{Err: err}
		}
		return Decision{}
	}
}

// FailAll returns a decide callback that fails every mutating
// operation with err (a persistently full or broken disk).
func FailAll(err error) func(Op) Decision {
	return func(Op) Decision { return Decision{Err: err} }
}

// TornWriteOp returns a decide callback that tears the n-th mutating
// operation — which should be a write — short at torn bytes and fails
// it with err.
func TornWriteOp(n int64, torn int, err error) func(Op) Decision {
	return func(op Op) Decision {
		if op.N == n {
			return Decision{Err: err, Torn: torn}
		}
		return Decision{}
	}
}

// step runs one mutating operation as an atomic decide → perform →
// after sequence. perform receives the torn-byte budget (-1 for a full
// write) and is skipped entirely when the decision injects a failure
// with no torn prefix.
func (i *Injector) step(kind Kind, path string, perform func(torn int) error) error {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.ops++
	op := Op{N: i.ops, Kind: kind, Path: path}
	var d Decision
	if i.decide != nil {
		d = i.decide(op)
	}
	var err error
	if d.Err != nil {
		i.injected++
		if d.Torn > 0 && (kind == OpWrite || kind == OpWriteFile) {
			perform(d.Torn) // best-effort torn prefix; the op still fails
		}
		err = d.Err
	} else {
		err = perform(-1)
	}
	if i.after != nil {
		i.after(op)
	}
	return err
}

// writeMode reports whether an OpenFile flag set can mutate the
// filesystem (create a dirent or write bytes).
func writeMode(flag int) bool {
	return flag&(os.O_WRONLY|os.O_RDWR|os.O_CREATE|os.O_TRUNC|os.O_APPEND) != 0
}

func (i *Injector) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if !writeMode(flag) {
		f, err := i.fs.OpenFile(name, flag, perm)
		if err != nil {
			return nil, err
		}
		return &injFile{f: f, inj: i, path: name}, nil
	}
	var f File
	err := i.step(OpOpenFile, name, func(int) error {
		var err error
		f, err = i.fs.OpenFile(name, flag, perm)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &injFile{f: f, inj: i, path: name}, nil
}

func (i *Injector) Open(name string) (File, error) {
	f, err := i.fs.Open(name)
	if err != nil {
		return nil, err
	}
	return &injFile{f: f, inj: i, path: name}, nil
}

func (i *Injector) Create(name string) (File, error) {
	var f File
	err := i.step(OpCreate, name, func(int) error {
		var err error
		f, err = i.fs.Create(name)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &injFile{f: f, inj: i, path: name}, nil
}

func (i *Injector) Rename(oldpath, newpath string) error {
	return i.step(OpRename, newpath, func(int) error {
		return i.fs.Rename(oldpath, newpath)
	})
}

func (i *Injector) Remove(name string) error {
	return i.step(OpRemove, name, func(int) error { return i.fs.Remove(name) })
}

func (i *Injector) RemoveAll(path string) error {
	return i.step(OpRemoveAll, path, func(int) error { return i.fs.RemoveAll(path) })
}

func (i *Injector) MkdirAll(path string, perm os.FileMode) error {
	return i.step(OpMkdirAll, path, func(int) error { return i.fs.MkdirAll(path, perm) })
}

func (i *Injector) WriteFile(name string, data []byte, perm os.FileMode) error {
	return i.step(OpWriteFile, name, func(torn int) error {
		if torn >= 0 {
			if torn > len(data) {
				torn = len(data)
			}
			return i.fs.WriteFile(name, data[:torn], perm)
		}
		return i.fs.WriteFile(name, data, perm)
	})
}

func (i *Injector) ReadFile(name string) ([]byte, error) { return i.fs.ReadFile(name) }
func (i *Injector) ReadDir(name string) ([]os.DirEntry, error) {
	return i.fs.ReadDir(name)
}
func (i *Injector) Stat(name string) (os.FileInfo, error) { return i.fs.Stat(name) }

var _ FS = (*Injector)(nil)

// injFile routes a file's mutating methods (Write, Sync, Truncate)
// back through its Injector; reads, seeks and closes pass through.
type injFile struct {
	f    File
	inj  *Injector
	path string
}

func (f *injFile) Read(p []byte) (int, error) { return f.f.Read(p) }
func (f *injFile) Seek(offset int64, whence int) (int64, error) {
	return f.f.Seek(offset, whence)
}
func (f *injFile) Close() error               { return f.f.Close() }
func (f *injFile) Name() string               { return f.f.Name() }
func (f *injFile) Stat() (os.FileInfo, error) { return f.f.Stat() }

func (f *injFile) Write(p []byte) (int, error) {
	var n int
	err := f.inj.step(OpWrite, f.path, func(torn int) error {
		if torn >= 0 {
			if torn > len(p) {
				torn = len(p)
			}
			var werr error
			n, werr = f.f.Write(p[:torn])
			return werr
		}
		var werr error
		n, werr = f.f.Write(p)
		return werr
	})
	if err != nil {
		return n, err
	}
	return n, nil
}

func (f *injFile) Sync() error {
	return f.inj.step(OpSync, f.path, func(int) error { return f.f.Sync() })
}

func (f *injFile) Truncate(size int64) error {
	return f.inj.step(OpTruncate, f.path, func(int) error { return f.f.Truncate(size) })
}

var _ File = (*injFile)(nil)
