package hot

// Receiver-propagation cases: a named type with any *ContProc-param method
// is a continuation machine, and every one of its methods is implicitly hot
// — including helpers with no ContProc in their own signature.

// pumpOp is a continuation machine: Step takes *ContProc.
type pumpOp struct {
	pending []int
	next    int
}

func (o *pumpOp) Step(c *ContProc) bool {
	return o.next >= len(o.pending)
}

// feed has no ContProc parameter, but its receiver type has a ContProc
// method, so the analyzer audits it anyway.
func (o *pumpOp) feed(n int) {
	o.pending = append(o.pending, n) // receiver-owned append: fine
	sink = n                         // want `converting int to any boxes the value on the heap`
}

// envelope mimics the pooled wire messages of a message pump: sent as a
// pointer it fits the interface word, sent by value it boxes.
type envelope struct {
	kind, writer int
}

func (o *pumpOp) send(e *envelope, v envelope) {
	consume(e) // pointer-shaped payload: no allocation, no report
	consume(v) // want `converting .*envelope to any boxes the value on the heap`
}

// drain is a method of the machine and carries the directive too: the
// receiver already puts it in the audit, so the mark is redundant, and the
// body is audited all the same.
//
//repro:hotpath // want `redundant //repro:hotpath`
func (o *pumpOp) drain() {
	sink = o.next // want `converting int to any boxes the value on the heap`
}

// pumpPool is a free list reached from the machine's methods; its own
// methods have no ContProc anywhere, so it is audited only where annotated.
type pumpPool struct {
	free []*envelope
}

//repro:hotpath
func (p *pumpPool) get() *envelope {
	if n := len(p.free); n > 0 {
		e := p.free[n-1]
		p.free = p.free[:n-1]
		return e
	}
	return &envelope{}
}

// coldHelper has no ContProc method anywhere on its type and no directive:
// its boxing goes unreported.
type coldHelper struct{ n int }

func (t *coldHelper) stash() {
	sink = t.n
}
