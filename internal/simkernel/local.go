package simkernel

// Local returns the kernel's one T, made on first use: every caller asking
// one kernel for the same T gets the same one. It is where replica-scoped
// memory lives: a package keeps its arenas in a local of its own type, so
// every world built on the kernel shares them and a pooled world's next
// replica carves the previous one's memory instead of allocating its own.
// Kernel.Reset rewinds every local, so nothing taken from one may be used
// after the next Reset; a T's Reset only rewinds, keeping what it holds for
// the next replica.
func Local[T any, P interface {
	*T
	Reset()
}](k *Kernel) P {
	for _, l := range k.locals {
		if p, ok := l.(P); ok {
			return p
		}
	}
	p := P(new(T))
	k.locals = append(k.locals, p)
	return p
}
