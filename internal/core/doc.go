// Package core implements the paper's primary contribution: the adaptive IO
// method (Section III, Algorithms 1–3).
//
// Writers are grouped contiguously by rank, one group per storage target.
// The first writer of each group additionally acts as the group's
// sub-coordinator (SC), owning one file placed on one OST and scheduling its
// writers onto that file one at a time. Rank 0 additionally acts as the
// coordinator (C) for the whole output. Writers and the coordinator talk
// only to sub-coordinators, never to each other, which bounds the message
// load on any single process.
//
// The adaptive mechanism: as sub-coordinators finish, their files (and thus
// their storage targets) become idle; the coordinator shifts queued writers
// from still-writing (slow) groups onto those idle (fast) targets, appending
// at the coordinator-tracked end offset, with at most one write active per
// file at any time. Work therefore drains from the slow areas of the file
// system into the fast ones — directly attacking the imbalance factor
// measured in Section II.
//
// Index handling follows the paper: each writer builds its local index
// entries from its assigned offset and ships them (separately from, and
// after, its data) to the *target* file's sub-coordinator; each SC sorts and
// merges its entries and writes a per-file local index; the coordinator
// gathers the local indices into a global index. (The paper notes the global
// indexing phase was the one unfinished piece, with a characteristics-based
// search as the interim; this implementation provides both — see
// bp.GlobalIndex.FindByValue.)
//
// # Message pumps
//
// The SC and C receive loops are the protocol's densest message paths —
// every write funnels a completion through an SC, and every adaptive
// redirect round-trips through C — so both run as run-to-completion
// continuation state machines (pump.go), spawned with Kernel.SpawnCont. The
// SC machine's receive loop:
//
//	         ┌──────────────────────────────────────────────┐
//	         ▼                                              │
//	[0 wait start]──▶[1 loop head]──exit?──▶[3..6 index epilogue]──▶ done
//	                    │     ▲                             (pfs cont ops,
//	            signalNext    │                              LocalIndex → C)
//	                    │     │
//	                    ▼     │
//	              RecvCont──▶[2 handle(env)]
//	               (parks; the delivery event wakes it
//	                with the completed RecvOp — advance style)
//
// State 1 feeds the group's own target (pop the waiting ring, send a
// go-signal envelope) and begins a receive; state 2 switches on the
// envelope kind (write/index/failure/adaptive traffic) and loops. The C
// machine has the same shape with a dispatch/rotation head and a gather +
// global-index epilogue.
//
// Wire messages are *scMsg envelopes: pointer-shaped, so sending one
// through mpisim's `any` payload never boxes. Each message gets its own
// envelope (fan-out sends two), carved from the arena, and the envelope
// lasts for the replica: no receiver returns it, and the arena's Reset with
// the world frees them all at once. A warmed replica's SC/writer exchange
// is allocation-free (TestSCPumpZeroAlloc).
//
// Rank messages travel through mpisim's latency-stamped delivery events in
// (time, seq) order: a delivery completes the parked receiver's RecvOp and
// schedules its wakeup, so every receiver observes the same message
// interleavings however its process is driven. No resume happens outside
// the kernel's event loop.
package core
