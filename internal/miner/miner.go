package miner

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/itemset"
)

// The fda pre-filter's fixed thresholds (see Options.Prefilter and
// docs/mining.md).
const (
	// Significance is the one-sided z-score an item must clear against
	// the uniform null to survive the pre-filter: two standard
	// deviations, the conventional ~97.7% one-sided confidence cut.
	Significance = 2.0
	// MinLift keeps mined itemsets at least as frequent as independence
	// of their items would predict (lift >= 1).
	MinLift = 1.0
)

// Options configures one mining run. It is the shared configuration
// contract every registered miner honors identically.
type Options struct {
	// MinSupport is the absolute minimum support in the chosen dimension.
	// Itemsets whose support is >= MinSupport are frequent. Must be >= 1.
	MinSupport uint64
	// ByPackets selects the support dimension: false counts flows (classic
	// Apriori over flow transactions, as in the IMC'09 paper), true counts
	// packets (the extension this paper adds for low-flow floods).
	ByPackets bool
	// Prefilter enables per-item statistical pruning, honoured only by the
	// miner registered as "fda" (it drops items whose weight does not
	// clear the Significance z-score against a uniform spread over their
	// feature before enumerating itemsets, then cuts mined sets below
	// MinLift). "apriori"
	// and "fpgrowth" ignore it — the latter is the same engine as "fda",
	// so the registry name alone decides. With Prefilter false every
	// registered miner produces identical canonical output for equal
	// inputs; with it true the fda output is a subset with equal supports.
	Prefilter bool
}

// ErrZeroSupport is returned when Options.MinSupport is 0, which would
// declare every possible itemset frequent.
var ErrZeroSupport = errors.New("miner: MinSupport must be >= 1")

// Validate rejects options no miner can run. Every registered miner
// calls it at the top of Mine, so the contract holds no matter which
// surface built the options.
func (o *Options) Validate() error {
	if o.MinSupport == 0 {
		return ErrZeroSupport
	}
	return nil
}

// Miner mines frequent itemsets from a flow-transaction dataset. All
// implementations must produce identical canonical output ([]Frequent in
// itemset.SortFrequent order with equal supports) for equal inputs when
// Options.Prefilter is off; the cross-miner property tests enforce this
// for every registered miner. With Prefilter on, a filtering miner may
// return a subset of that output (same supports, same canonical order).
type Miner interface {
	// Mine returns all itemsets with support >= opts.MinSupport in the
	// chosen dimension, canonically sorted. Cancelling ctx aborts mining
	// promptly with ctx.Err().
	Mine(ctx context.Context, ds *itemset.Dataset, opts Options) ([]itemset.Frequent, error)
}

// Preparer is the optional extension of a Miner whose work splits into a
// part independent of the minimum support and a part that is not. The
// self-tuning loop mines one dataset and dimension at a falling support,
// so it prepares once and mines every round.
type Preparer interface {
	// Prepare does the support-independent work for ds in the dimension
	// and under the bounds of opts; opts.MinSupport is the floor no round
	// will mine below. Cancelling ctx aborts it with ctx.Err().
	Prepare(ctx context.Context, ds *itemset.Dataset, opts Options) (Prepared, error)
}

// Prepared is a dataset prepared for mining at any support at or above
// its floor.
type Prepared interface {
	// MineAt returns what Mine returns for the prepared dataset and
	// options with MinSupport set to minSup. A minSup below the floor is
	// an ErrBelowFloor error; cancelling ctx aborts with ctx.Err().
	MineAt(ctx context.Context, minSup uint64) ([]itemset.Frequent, error)
}

// ErrBelowFloor is returned by Prepared.MineAt for a support below the
// floor the dataset was prepared at.
var ErrBelowFloor = errors.New("miner: MinSupport below the prepared floor")

// Prepare returns m's own Prepared when m implements Preparer, and
// otherwise one that calls m.Mine at each support, so a caller mining at
// several supports has one path for every miner.
func Prepare(ctx context.Context, m Miner, ds *itemset.Dataset, opts Options) (Prepared, error) {
	if p, ok := m.(Preparer); ok {
		return p.Prepare(ctx, ds, opts)
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &perRound{m: m, ds: ds, opts: opts}, nil
}

// perRound is the Prepared of a miner without a Prepare step.
type perRound struct {
	m    Miner
	ds   *itemset.Dataset
	opts Options
}

func (p *perRound) MineAt(ctx context.Context, minSup uint64) ([]itemset.Frequent, error) {
	if err := CheckFloor(minSup, p.opts.MinSupport); err != nil {
		return nil, err
	}
	opts := p.opts
	opts.MinSupport = minSup
	return p.m.Mine(ctx, p.ds, opts)
}

// CheckFloor returns an ErrBelowFloor error when minSup is below the
// floor a Prepared was made at, and nil otherwise.
func CheckFloor(minSup, floor uint64) error {
	if minSup < floor {
		return fmt.Errorf("%w: %d < %d", ErrBelowFloor, minSup, floor)
	}
	return nil
}

// MineMaximal mines with m and reduces the result to maximal itemsets, the
// form the paper reports to operators.
func MineMaximal(ctx context.Context, m Miner, ds *itemset.Dataset, opts Options) ([]itemset.Frequent, error) {
	all, err := m.Mine(ctx, ds, opts)
	if err != nil {
		return nil, err
	}
	return itemset.MaximalOnly(all), nil
}

// Factory builds a miner instance. Miners are stateless between runs, so
// factories typically return a shared value.
type Factory func() Miner

// DefaultName is the miner used when no name is given: the paper's
// extended Apriori.
const DefaultName = "apriori"

// registry holds the named miner factories. Built-in miners self-register
// from their packages' init functions.
var registry = struct {
	mu        sync.RWMutex
	factories map[string]Factory
}{factories: map[string]Factory{}}

// Register adds a named miner factory. The name must be non-empty and not
// already taken.
func Register(name string, f Factory) error {
	if name == "" {
		return fmt.Errorf("miner: register with empty name")
	}
	if f == nil {
		return fmt.Errorf("miner: register %q with nil factory", name)
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if _, dup := registry.factories[name]; dup {
		return fmt.Errorf("miner: %q already registered", name)
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

// Names lists the registered miner names, sorted.
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

// New builds the named miner ("" selects DefaultName).
func New(name string) (Miner, error) {
	if name == "" {
		name = DefaultName
	}
	registry.mu.RLock()
	f, ok := registry.factories[name]
	registry.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("miner: unknown miner %q (have %v)", name, Names())
	}
	return f(), nil
}
