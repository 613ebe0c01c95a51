package storage

import "os"

// fsys is the file system under an Engine's data directory: the OS in
// production, one that injects faults and crashes in tests. It is every
// file operation the engine performs — appends, rotation, checkpoints,
// recovery and GC — so no path bypasses it.
type fsys interface {
	OpenFile(name string, flag int, perm os.FileMode) (file, error)
	ReadFile(name string) ([]byte, error)
	ReadDir(name string) ([]os.DirEntry, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	MkdirAll(path string, perm os.FileMode) error
}

// file is an open file or directory of an fsys (a directory only syncs).
type file interface {
	Write(p []byte) (int, error)
	Truncate(size int64) error
	Sync() error
	Close() error
}

// osFS is the operating system's file system.
type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (file, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) ReadDir(name string) ([]os.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
