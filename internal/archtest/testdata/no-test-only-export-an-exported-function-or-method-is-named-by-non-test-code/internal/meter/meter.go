package meter

// Gauge keeps a hand count, peak, beside the level it sets; only its
// test reads the count back, through Peak, and only a test calls Reset.
type Gauge struct{ level, peak int }

func New() *Gauge { return &Gauge{} }

func (g *Gauge) Set(v int) { g.level, g.peak = v, max(g.peak, v) }

func (g *Gauge) Peak() int { return g.peak }

func Reset(g *Gauge) { *g = Gauge{} }
