package scenario

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Artifact is one rendered output file of a scenario run.
type Artifact struct {
	// Name is the file name (written under -out, or printed to stdout).
	Name string
	// Text is the rendered content.
	Text string
}

// Definition is a registered scenario: a named spec builder plus an
// optional renderer that turns the generic Result back into the driver's
// canonical tables and figures. Without a Render the generic per-point
// summary table is used.
type Definition struct {
	// Name is the registry key (the -scenario argument).
	Name string
	// Spec builds the spec for a preset mode ("quick" | "full").
	Spec func(mode string) (Scenario, error)
	// Render rebuilds the driver's artifacts from the run (optional). The
	// run options are passed through because some renderers (Figure 1's
	// shape checks) run auxiliary scenarios at the same seed/parallelism.
	Render func(res *Result, opt RunOptions) ([]Artifact, []string, error)
}

var (
	regMu    sync.Mutex
	registry = map[string]Definition{}
)

// Register adds a definition; it panics on duplicates or empty names,
// since registration happens in package init.
func Register(d Definition) {
	regMu.Lock()
	defer regMu.Unlock()
	if d.Name == "" {
		panic("scenario: Register with empty name")
	}
	if d.Spec == nil {
		panic("scenario: Register " + d.Name + " without a Spec builder")
	}
	if _, dup := registry[d.Name]; dup {
		panic("scenario: duplicate registration of " + d.Name)
	}
	registry[d.Name] = d
}

// Lookup finds a registered definition.
func Lookup(name string) (Definition, bool) {
	regMu.Lock()
	defer regMu.Unlock()
	d, ok := registry[name]
	return d, ok
}

// Names lists the registered scenarios, sorted.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Load resolves a -scenario argument: a registered name (built at the
// given preset mode) or a path to a JSON spec file. The returned
// definition is nil for file specs.
func Load(arg, mode string) (Scenario, *Definition, error) {
	if def, ok := Lookup(arg); ok {
		s, err := def.Spec(mode)
		if err != nil {
			return Scenario{}, nil, fmt.Errorf("scenario %s: %w", arg, err)
		}
		return s, &def, nil
	}
	if strings.ContainsAny(arg, "/\\.") {
		s, err := LoadFile(arg)
		return s, nil, err
	}
	return Scenario{}, nil, fmt.Errorf("scenario: unknown scenario %q (registered: %s; or pass a .json spec file)",
		arg, strings.Join(Names(), ", "))
}
