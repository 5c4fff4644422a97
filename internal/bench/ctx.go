package bench

// Ctx is the per-experiment execution context: every run an experiment
// performs — and every cache those runs consult — lives here instead of in
// package globals. Each experiment gets a fresh Ctx, which makes two
// properties hold at once: a sweep can run experiments on concurrent
// goroutines with no shared mutable state, and an experiment's output is a
// pure function of its own runs (no cross-experiment cache coupling), so
// results are bit-identical at any parallelism level.
type Ctx struct {
	// size picks every window, population and rate the experiment runs.
	size Size

	// obsRuns accumulates the observability block of every harness
	// execution since the last drain.
	obsRuns []ObsRun

	// standaloneCache memoizes exclusive-run maximum bandwidth per
	// profile (the f-Util denominator).
	standaloneCache map[string]float64

	// runCache memoizes fio runs shared between result tables of one
	// experiment (fig7 and fig8 report different views of the same runs).
	runCache map[string]*FioRun

	// ycsbCache memoizes YCSB runs shared between result tables.
	ycsbCache map[ycsbKey]YCSBResult
}

// NewCtx returns an empty context whose experiments run at size.
func NewCtx(size Size) *Ctx {
	return &Ctx{
		size:            size,
		standaloneCache: map[string]float64{},
		runCache:        map[string]*FioRun{},
		ycsbCache:       map[ycsbKey]YCSBResult{},
	}
}

// scale is the table's column for the context's size.
func (c *Ctx) scale() scale { return c.size.scale() }

// DrainObsRuns returns and clears the observability blocks accumulated by
// Execute since the previous drain.
func (c *Ctx) DrainObsRuns() []ObsRun {
	out := c.obsRuns
	c.obsRuns = nil
	return out
}

// cachedRun memoizes an Execute call under key.
func (c *Ctx) cachedRun(key string, cfg FioConfig) *FioRun {
	if r, ok := c.runCache[key]; ok {
		return r
	}
	r := c.Execute(cfg)
	c.runCache[key] = r
	return r
}
