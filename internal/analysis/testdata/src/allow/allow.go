// Package allow exercises the shared //repro: directive machinery: grammar
// errors, placement errors, and stale suppressions are findings in their own
// right, attributed to reprolint itself.
package allow

import "time"

// validTrailing suppresses a real finding on its own line.
func validTrailing() time.Time {
	return time.Now() //repro:allow nodeterm cold-path timestamp for a report header
}

// validStandalone guards the following line.
func validStandalone() time.Time {
	//repro:allow nodeterm cold-path timestamp for a report header
	return time.Now()
}

func bareAllow() {
	//repro:allow // want `//repro:allow needs an analyzer name and a reason`
}

func unknownAnalyzer() {
	//repro:allow gofmt because reasons // want `//repro:allow names unknown analyzer "gofmt" \(have nodeterm, rngxonly, hotpath, resetcomplete, contblock, ringdiscipline\)`
}

func missingReason() time.Time {
	return time.Now() //repro:allow nodeterm // want `//repro:allow nodeterm needs a reason` `time.Now reads the wall clock`
}

func staleAllow() int {
	x := 1 //repro:allow nodeterm nothing here reads the clock anymore // want `unused //repro:allow nodeterm: no nodeterm finding on the guarded line \(stale suppression — delete it\)`
	return x
}

// wrongAnalyzerDoesNotSuppress: an allow for one analyzer leaves another
// analyzer's finding on the same line intact — and is itself stale.
func wrongAnalyzerDoesNotSuppress() time.Time {
	return time.Now() //repro:allow hotpath misattributed waiver // want `time.Now reads the wall clock` `unused //repro:allow hotpath`
}

//repro:hotpath with arguments // want `//repro:hotpath takes no arguments`
func hotpathWithArgs() {}

func misplacedHotpath() {
	//repro:hotpath // want `misplaced //repro:hotpath: it must appear in a function's doc comment`
}

type waivers struct {
	a int //repro:reset-skip held open intentionally
	b int //repro:reset-skip // want `//repro:reset-skip needs a reason`
}

func (w *waivers) Reset() { // want `waivers.Reset: field b is not reset`
	_ = w
}

// staleSkips: a waiver on a field Reset handles anyway, and a waiver on a
// type with no Reset method at all, are both dead weight.
type staleSkips struct {
	c int //repro:reset-skip held open intentionally // want `unused //repro:reset-skip: the field is reset anyway or its type has no Reset method \(stale waiver — delete it\)`
	d int
}

func (s *staleSkips) Reset() {
	s.c = 0
	s.d = 0
}

type neverReset struct {
	e int //repro:reset-skip retained across runs // want `unused //repro:reset-skip: the field is reset anyway or its type has no Reset method \(stale waiver — delete it\)`
}

//repro:reset-skip misplaced on a function // want `misplaced //repro:reset-skip: it must be attached to a struct field`
func notAField() {}

func unknownKind() {
	//repro:frobnicate // want `unknown //repro: directive "frobnicate" \(have allow, hotpath, reset-skip\)`
}
