package detector

import (
	"fmt"
	"sort"
	"sync"
)

// Factory builds a detector. The built-in batch detectors run one fixed
// configuration, so theirs cannot fail; an external detector's factory
// may. A differently tuned detector is its own Detector implementation
// registered under its own name; the registry carries no per-detector
// knowledge — the paper's pluggability seam.
type Factory func() (Detector, error)

// registry holds the named detector factories. Built-in detectors
// self-register from their packages' init functions; external detectors
// register through rootcause.RegisterDetector.
var registry = struct {
	mu        sync.RWMutex
	factories map[string]Factory
}{factories: map[string]Factory{}}

// Register adds a named detector factory. The name must be non-empty and
// not already taken.
func Register(name string, f Factory) error {
	if name == "" {
		return fmt.Errorf("detector: register with empty name")
	}
	if f == nil {
		return fmt.Errorf("detector: register %q with nil factory", name)
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if _, dup := registry.factories[name]; dup {
		return fmt.Errorf("detector: %q already registered", name)
	}
	registry.factories[name] = f
	return nil
}

// MustRegister is Register that panics on error; for package init use.
func MustRegister(name string, f Factory) {
	if err := Register(name, f); err != nil {
		panic(err)
	}
}

// Names lists the registered detector names, sorted.
func Names() []string {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	names := make([]string, 0, len(registry.factories))
	for name := range registry.factories {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// New builds the named detector.
func New(name string) (Detector, error) {
	registry.mu.RLock()
	f, ok := registry.factories[name]
	registry.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("detector: unknown detector %q (have %v)", name, Names())
	}
	return f()
}
