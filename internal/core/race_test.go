//go:build race

package core

// raceBuild reports a -race build. The race detector's instrumentation
// changes allocation counts, so allocation pins skip under it.
const raceBuild = true
