package bench

// Value is one reported metric.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of raw samples behind the value (0 for a value
	// that is a single reading or a count).
	N int `json:"n,omitempty"`
	// Rounds holds the per-round values whose median Value is.
	Rounds []float64 `json:"rounds,omitempty"`
}

// WorkloadResult is everything one workload reported.
type WorkloadResult struct {
	Name string `json:"name"`
	// Rounds is how many measured rounds the workload ran.
	Rounds  int              `json:"rounds"`
	Metrics map[string]Value `json:"metrics"`
	// Attempted and Failed count operations; Failures lists the first
	// few failed ones. Correct is Failed == 0 and every oracle agreed.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	Correct   bool     `json:"correct"`
	// DecisionHash (churn_mixed) chains the control cycles' decisions;
	// Cycles is how many cycles it covers. OutputHash (repro_sweep) is
	// the hash of the sweeps' stdout with timing lines stripped.
	DecisionHash  string   `json:"decision_hash,omitempty"`
	DecisionChain []string `json:"decision_chain,omitempty"`
	OutputHash    string   `json:"output_hash,omitempty"`
	// Budget holds the budget-closure conditions, each evaluated.
	Budget []BudgetCheck `json:"budget,omitempty"`
	// Notes are derived readings that are neither metrics nor checks.
	Notes []string `json:"notes,omitempty"`
}

// BudgetCheck is one condition under which a workload's per-layer
// numbers account for its whole, stated with its figures and
// evaluated; the report prints it as closed or NOT closed.
type BudgetCheck struct {
	What   string `json:"what"`
	Closed bool   `json:"closed"`
}

// acc accumulates a workload's metrics across rounds: a metric
// observed once per round reports the median of its round values, a
// count reports its sum.
type acc struct {
	rounds map[string][]float64
	n      map[string]int
	sums   map[string]float64
	set    map[string]float64
}

func newAcc() *acc {
	return &acc{
		rounds: make(map[string][]float64),
		n:      make(map[string]int),
		sums:   make(map[string]float64),
		set:    make(map[string]float64),
	}
}

// round records one round's value of a metric, backed by n samples.
func (a *acc) round(name string, v float64, n int) {
	a.rounds[name] = append(a.rounds[name], v)
	a.n[name] += n
}

// add sums a count.
func (a *acc) add(name string, v float64) { a.sums[name] += v }

// put records a single reading.
func (a *acc) put(name string, v float64, n int) {
	a.set[name] = v
	a.n[name] = n
}

// values resolves the accumulated readings into reported values with
// units from the catalog. Metrics the workload never recorded read 0.
func (a *acc) values() map[string]Value {
	out := make(map[string]Value, len(Catalog))
	for _, m := range Catalog {
		v := Value{Unit: m.Unit, N: a.n[m.Name]}
		switch {
		case len(a.rounds[m.Name]) > 0:
			v.Rounds = append([]float64(nil), a.rounds[m.Name]...)
			v.Value = Median(v.Rounds)
		default:
			if s, ok := a.sums[m.Name]; ok {
				v.Value = s
			} else {
				v.Value = a.set[m.Name]
			}
		}
		out[m.Name] = v
	}
	return out
}
