// Package odfs is the Odyssey namespace: the paper integrates Odyssey into
// Linux as a new VFS file system, with applications naming typed data
// objects by path and invoking type-specific operations (tsops) that are
// dispatched to the warden for the object's type. This package reproduces
// that interface layer: a hierarchical namespace of typed objects, a warden
// mount table keyed by type, open handles carrying fidelity annotations,
// and tsop dispatch.
//
// The viceroy's warden registry (internal/core) supplies the mount table,
// so a warden registered once serves both the adaptation machinery and the
// namespace.
package odfs

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"odyssey/internal/core"
	"odyssey/internal/sim"
)

// Errors returned by namespace operations.
var (
	ErrNotFound = errors.New("odfs: no such object")
	ErrExists   = errors.New("odfs: object already exists")
	ErrNoWarden = errors.New("odfs: no warden mounted for type")
	ErrBadPath  = errors.New("odfs: invalid path")
	ErrNoSuchOp = errors.New("odfs: warden does not implement operation")
	ErrClosed   = errors.New("odfs: handle is closed")
)

// Object is a typed data object in the Odyssey namespace.
type Object struct {
	// Path is the absolute name, e.g. "/odyssey/maps/san-jose".
	Path string
	// Type selects the warden, e.g. "map", "video", "speech", "web".
	Type string
	// Data is the warden-interpreted payload descriptor (a mapview.Map,
	// a video.Clip, ...).
	Data any
}

// TSOpWarden is implemented by wardens that accept type-specific
// operations. Op names are warden-defined ("fetch", "play", "recognize");
// args and results are warden-interpreted.
type TSOpWarden interface {
	core.Warden
	TSOp(p *sim.Proc, obj *Object, op string, fidelity int, args any) (any, error)
}

// FS is the Odyssey namespace bound to a viceroy's warden registry.
type FS struct {
	v       *core.Viceroy
	objects map[string]*Object
}

// New returns an empty namespace using v's wardens as the mount table.
func New(v *core.Viceroy) *FS {
	return &FS{v: v, objects: make(map[string]*Object)}
}

// cleanPath validates and normalizes an absolute path.
func cleanPath(path string) (string, error) {
	if !strings.HasPrefix(path, "/") {
		return "", fmt.Errorf("%w: %q is not absolute", ErrBadPath, path)
	}
	parts := strings.Split(path, "/")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		switch p {
		case "", ".":
			continue
		case "..":
			return "", fmt.Errorf("%w: %q contains ..", ErrBadPath, path)
		default:
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		return "/", nil
	}
	return "/" + strings.Join(out, "/"), nil
}

// Register adds an object to the namespace. The object's type must have a
// warden mounted.
func (fs *FS) Register(obj Object) (*Object, error) {
	path, err := cleanPath(obj.Path)
	if err != nil {
		return nil, err
	}
	if fs.v.Warden(obj.Type) == nil {
		return nil, fmt.Errorf("%w %q (object %q)", ErrNoWarden, obj.Type, path)
	}
	if _, dup := fs.objects[path]; dup {
		return nil, fmt.Errorf("%w: %q", ErrExists, path)
	}
	obj.Path = path
	fs.objects[path] = &obj
	return &obj, nil
}

// Remove deletes an object from the namespace.
func (fs *FS) Remove(path string) error {
	path, err := cleanPath(path)
	if err != nil {
		return err
	}
	if _, ok := fs.objects[path]; !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, path)
	}
	delete(fs.objects, path)
	return nil
}

// Lookup resolves a path to its object.
func (fs *FS) Lookup(path string) (*Object, error) {
	path, err := cleanPath(path)
	if err != nil {
		return nil, err
	}
	obj, ok := fs.objects[path]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, path)
	}
	return obj, nil
}

// Walk lists the object paths under a directory prefix, sorted.
func (fs *FS) Walk(prefix string) ([]string, error) {
	prefix, err := cleanPath(prefix)
	if err != nil {
		return nil, err
	}
	if prefix != "/" {
		prefix += "/"
	}
	var out []string
	for p := range fs.objects {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out, nil
}

// Handle is an open object carrying a fidelity annotation, the unit the
// original API attaches resource expectations and tsops to.
type Handle struct {
	fs       *FS
	obj      *Object
	warden   TSOpWarden
	fidelity int
	closed   bool
}

// Open resolves a path and returns a handle at the given fidelity level.
// The object's warden must implement tsops.
func (fs *FS) Open(path string, fidelity int) (*Handle, error) {
	obj, err := fs.Lookup(path)
	if err != nil {
		return nil, err
	}
	w := fs.v.Warden(obj.Type)
	tw, ok := w.(TSOpWarden)
	if !ok {
		return nil, fmt.Errorf("%w %q: warden has no tsop support", ErrNoWarden, obj.Type)
	}
	return &Handle{fs: fs, obj: obj, warden: tw, fidelity: fidelity}, nil
}

// Object returns the handle's object.
func (h *Handle) Object() *Object { return h.obj }

// SetFidelity re-annotates the handle (applications do this in response to
// adaptation upcalls).
func (h *Handle) SetFidelity(level int) { h.fidelity = level }

// TSOp dispatches a type-specific operation to the object's warden on
// behalf of process p.
func (h *Handle) TSOp(p *sim.Proc, op string, args any) (any, error) {
	if h.closed {
		return nil, ErrClosed
	}
	return h.warden.TSOp(p, h.obj, op, h.fidelity, args)
}

// Close invalidates the handle.
func (h *Handle) Close() { h.closed = true }
