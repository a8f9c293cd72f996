package compiler

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/fermion"
)

// Method compiles a Majorana-form fermionic Hamiltonian into a mapping.
// Implementations must honor context cancellation in long-running loops
// and must be safe for concurrent use.
type Method interface {
	Name() string
	Compile(ctx context.Context, mh *fermion.MajoranaHamiltonian, opts Options) (*Result, error)
}

var registry = struct {
	sync.RWMutex
	m map[string]Method
}{m: make(map[string]Method)}

// Register adds a method to the registry under m.Name(). Registering an
// empty name, a name containing ':', or a name already taken is an error.
func Register(m Method) error {
	name := m.Name()
	if name == "" {
		return fmt.Errorf("compiler: method with empty name")
	}
	if strings.Contains(name, ":") {
		return fmt.Errorf("compiler: method name %q must not contain ':'", name)
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.m[name]; dup {
		return fmt.Errorf("compiler: method %q already registered", name)
	}
	registry.m[name] = m
	return nil
}

// MustRegister is Register, panicking on error. It is intended for
// package-init registration of a program's method set.
func MustRegister(m Method) {
	if err := Register(m); err != nil {
		panic(err)
	}
}

// Resolve parses a method spec of the form "name" or "name:param" and
// returns the registered method, configured with the parameter when one
// is given. Only built-in methods take a parameter. Unknown names,
// parameters on parameterless methods, and malformed or out-of-range
// parameters all return errors.
func Resolve(spec string) (Method, error) {
	name, arg, hasArg := strings.Cut(spec, ":")
	registry.RLock()
	m, ok := registry.m[name]
	registry.RUnlock()
	if !ok {
		return nil, fmt.Errorf("compiler: unknown method %q (have %s)", name, strings.Join(Methods(), ", "))
	}
	if !hasArg {
		return m, nil
	}
	if bm, ok := m.(method); ok && bm.parse != nil {
		return bm.parse(arg)
	}
	return nil, fmt.Errorf("compiler: method %q takes no parameter (got %q)", name, spec)
}

// Methods returns the registered method names, sorted.
func Methods() []string {
	registry.RLock()
	defer registry.RUnlock()
	names := make([]string, 0, len(registry.m))
	for name := range registry.m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
