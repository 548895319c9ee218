package main

import (
	"runtime"
	"sort"
	"strconv"
	"time"
)

// The reference computation is fixed work on the standard library
// alone — string-keyed maps, sorting, small allocations and pointer
// chasing, as in the tuner's own hot paths — timed in the same run as
// the tuner, between sessions or retune cycles. Tuning time is reported
// as a multiple of it: when the host runs slower or faster for a while
// (neighbours' load on a shared machine, clock changes), the tuner and
// the reference slow down alike and the ratio holds (README.md has the
// measurements). No code of the repository runs in it, so a change to
// the tuner moves the ratio in full.

// Reference sizing: about 30 ms of CPU on a 2-vCPU x86-64 virtual
// machine.
const (
	referenceKeys  = 30000
	referenceNodes = 100000
)

// referenceSum is the reference computation's result: the same on every
// call, and kept so the compiler cannot drop the work.
var referenceSum uint64

// referenceWork does the reference computation once and returns its
// checksum.
func referenceWork() uint64 {
	m := make(map[string]int)
	keys := make([]string, 0, referenceKeys)
	for i := 0; i < referenceKeys; i++ {
		k := strconv.Itoa(i * 7919 % 100003)
		m[k] += i
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sum uint64
	for _, k := range keys {
		sum += uint64(m[k]) + uint64(len(k))
	}
	type node struct {
		next *node
		v    float64
	}
	var head *node
	for i := 0; i < referenceNodes; i++ {
		head = &node{next: head, v: float64(i) * 1.5}
	}
	for n := head; n != nil; n = n.next {
		sum += uint64(n.v)
	}
	return sum
}

// referenceCPU collects the heap, then runs the reference computation
// once and returns the CPU time it took. The collection first means no
// garbage collection is under way to slow it by a varying amount. It
// runs on a locked OS thread and reads that thread's CPU time, so work
// on other threads (the daemon's ingest traffic) is not charged to it.
func referenceCPU() time.Duration {
	runtime.GC()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPU()
	referenceSum = referenceWork()
	return threadCPU() - t0
}
