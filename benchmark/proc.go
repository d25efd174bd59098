package main

import (
	"runtime"
	"syscall"
	"time"
)

// procSnap is the process-wide cost accounting read around a window.
// The generator shares the process with the system under test, so
// these are costs of both; they move with the server because the
// client's share is constant per request.
type procSnap struct {
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	gcPause time.Duration
	rssMB   float64
}

func readProc() procSnap {
	var ru syscall.Rusage
	var s procSnap
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		s.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs = ms.Mallocs
	s.bytes = ms.TotalAlloc
	s.gcPause = time.Duration(ms.PauseTotalNs)
	return s
}
