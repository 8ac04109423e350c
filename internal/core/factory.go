package core

import (
	"fmt"

	"repro/internal/pattern"
	"repro/internal/xgft"
)

// AlgorithmNames lists the selectable routing schemes in a stable
// order (the order the paper's figures use).
func AlgorithmNames() []string {
	return []string{"s-mod-k", "d-mod-k", "random", "r-NCA-u", "r-NCA-d", "colored", "level-wise"}
}

// NewByName constructs a routing algorithm by its paper name. The
// seed matters only for the randomized schemes; phases are required
// only by the pattern-aware "colored" and "level-wise", and must fit
// the tree.
func NewByName(name string, t *xgft.Topology, seed uint64, phases []*pattern.Pattern) (Algorithm, error) {
	switch name {
	case "s-mod-k":
		return NewSModK(t), nil
	case "d-mod-k":
		return NewDModK(t), nil
	case "random":
		return NewRandom(t, seed), nil
	case "r-NCA-u":
		return NewRandomNCAUp(t, seed), nil
	case "r-NCA-d":
		return NewRandomNCADown(t, seed), nil
	case "colored", "level-wise":
		if len(phases) == 0 {
			return nil, fmt.Errorf("core: %s routing needs the communication phases", name)
		}
		for _, ph := range phases {
			if err := fits(t, ph); err != nil {
				return nil, err
			}
		}
		if name == "level-wise" {
			return NewLevelWise(t, phases)
		}
		return NewColored(t, phases, ColoredConfig{Seed: seed}), nil
	default:
		return nil, fmt.Errorf("core: unknown routing algorithm %q (known: %v)", name, AlgorithmNames())
	}
}
