package simkernel

// Local returns the kernel's one T, made on first use: every caller asking
// one kernel for the same T gets the same one. It is where replica-scoped
// memory lives, one slab per type per kernel: Local[Slab[T]] is the arena
// every world and method on the kernel carves its Ts from, so a warmed
// replica, making the same carves in the same order, carves the previous
// replica's memory instead of allocating its own. Kernel.Reset rewinds
// every local, so nothing taken from one may be used after the next Reset;
// a T's Reset only rewinds, keeping what it holds for the next replica.
// Local scans the kernel's locals, so call it per step or per constructor,
// and keep the *Slab for carves made per rank or per message.
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
