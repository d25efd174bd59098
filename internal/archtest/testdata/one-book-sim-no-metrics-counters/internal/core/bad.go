package core

import m "hotc/internal/metrics"

type HotC struct{ counts m.Counters }
