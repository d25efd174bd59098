package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"
)

// directBatches is how many times each direct timing is repeated; the
// median batch is reported and the spread is taken over all of them.
const directBatches = 7

// timeOp runs op's batches and returns ns per call and allocations per
// call, one value per batch. With a prep step every call is timed on
// its own (two clock reads of overhead, negligible for the
// microsecond-scale calls that need one).
func timeOp(op directOp) (nsPerCall, allocsPerCall []float64) {
	var ms runtime.MemStats
	for b := 0; b < directBatches; b++ {
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		var total time.Duration
		if op.prep == nil {
			t0 := time.Now()
			for i := 0; i < op.iters; i++ {
				op.run()
			}
			total = time.Since(t0)
		} else {
			for i := 0; i < op.iters; i++ {
				op.prep()
				t0 := time.Now()
				op.run()
				total += time.Since(t0)
			}
		}
		runtime.ReadMemStats(&ms)
		nsPerCall = append(nsPerCall, float64(total)/float64(op.iters))
		allocsPerCall = append(allocsPerCall, float64(ms.Mallocs-mallocs)/float64(op.iters))
	}
	return nsPerCall, allocsPerCall
}

// measureDirect times each layer's public functions in isolation, and
// the bare watchdog round trip that is the floor of live's hop.
func measureDirect(seed int64, rec *recorder) (map[string]metric, error) {
	ops, err := directOps()
	if err != nil {
		return nil, err
	}
	set := newMetricSet(perLayerDefs)
	for _, op := range ops {
		var ns, allocs []float64
		rec.call("direct."+op.metric, func() error { ns, allocs = timeOp(op); return nil })
		if op.done != nil {
			op.done()
		}
		if op.check != nil {
			if err := op.check(); err != nil {
				return nil, err
			}
		}
		per := max(op.perCall, 1)
		vals := make([]float64, len(ns))
		for i, v := range ns {
			switch op.unit {
			case "us":
				vals[i] = v / 1e3
			case "1/s":
				vals[i] = float64(per) / (v / 1e9)
			default:
				vals[i] = v
			}
		}
		n := directBatches * op.iters * per
		set.set(op.metric, measured, median(vals), n, vals)
		if op.metric == "admission.admit_ns" {
			set.set("admission.admit_allocs", measured, median(allocs), n, allocs)
		}
	}

	// The watchdog hop with no gateway: one client, one connection, the
	// warm_small payload.
	url, stop, err := bareWatchdog()
	if err != nil {
		return nil, err
	}
	defer stop()
	w := newWorker(0)
	defer w.close()
	w.rec = rec
	t := &target{url: url, echo: true, payloads: []payload{newPayload(rand.New(rand.NewSource(seed)), 64)}}
	epoch := time.Now()
	var rtt []float64
	for i := 0; i < 200+directBatches*1000; i++ {
		s := w.do(t, epoch, -1)
		if !s.ok {
			return nil, fmt.Errorf("bare watchdog echo failed verification")
		}
		if i >= 200 { // the first requests open the connection and warm the path
			rtt = append(rtt, float64(s.done-s.sent)/1e3)
		}
	}
	set.set("live.watchdog_rtt_us", measured, p50(rtt), len(rtt), segmentApply(rtt, directBatches, p50))

	return set.m, nil
}
