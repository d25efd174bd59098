package core

import "hotc/internal/pool"

type Options struct {
	Pool     pool.Options
	Interval int
}
