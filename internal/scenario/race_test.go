//go:build race

package scenario_test

// raceBuild reports a race-detector build, whose instrumentation changes
// what escapes to the heap.
const raceBuild = true
