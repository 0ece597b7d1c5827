package main

import "time"

// The benchmark runs on a small slice of a shared machine whose speed
// drifts with its neighbours' load: the same table2 regeneration took
// 2.4 s to 4.6 s within ten minutes (2 vCPU KVM guest on a 2 GHz Xeon,
// Sapphire Rapids), with the work done unchanged. The drift follows
// memory latency, so a run reads a fixed pointer chase between its
// regenerations and reports its end-to-end times in reference-host
// seconds: host seconds divided by the median of its readings, each a
// slowdown against refStepNs. In a drifting stretch this cut the spread
// (interquartile range over median) of 36 s windows of table2 wall time
// from 0.27-0.36 to 0.10-0.18; in quiet stretches it changes the spread
// little. The chase shares no code with the simulator, so a change to
// the simulator cannot move the yardstick.

// refStepNs is one chase step on the reference host: the machine above
// in a quiet period.
const refStepNs = 170

// refSteps is one reading: about 0.5 s on the reference host.
const refSteps = 3_000_000

// refEntries sizes the chased permutation (32 MiB of uint32), well past
// the per-core caches, so each step waits on the shared cache or memory
// as the simulator's heap walks do.
const refEntries = 8 << 20

// speedProbe chases a random single-cycle permutation.
type speedProbe struct {
	next []uint32
	at   uint32
}

// newSpeedProbe builds a fixed random cyclic permutation of n entries
// with Sattolo's algorithm, so a chase visits every entry before it
// repeats.
func newSpeedProbe(n int) *speedProbe {
	next := make([]uint32, n)
	for i := range next {
		next[i] = uint32(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x % uint64(i)
		next[i], next[j] = next[j], next[i]
	}
	return &speedProbe{next: next}
}

// slowdown takes one reading: the host's time per chase step over
// refStepNs (above 1 on a host slower than the reference).
func (p *speedProbe) slowdown() float64 {
	start := time.Now() //soravet:allow wallclock the probe measures host speed
	at := p.at
	for k := 0; k < refSteps; k++ {
		at = p.next[at]
	}
	p.at = at
	return float64(time.Since(start).Nanoseconds()) / (refSteps * refStepNs) //soravet:allow wallclock the probe measures host speed
}
