package pfs

import (
	"testing"

	"repro/internal/simkernel"
)

// TestNamespaceLookups pins the namespace's lookup semantics now that a
// create only logs its name and a lookup folds the log into the name map:
// the first lookup sees every create completed before it, the latest create
// of a name wins, a create after a lookup is seen by the next one, and an
// open begun while a create of its name is still queued at the MDS misses
// it.
func TestNamespaceLookups(t *testing.T) {
	k := simkernel.New()
	defer k.Shutdown()
	fs := MustNew(k, flatConfig())
	one := Layout{OSTs: []int{0}}
	var a, b, d1, d2, e, g, h, q *File
	var gErr, hErr, qErr error
	k.SpawnCont(run(
		create(fs, "a", one, &a, nil),
		create(fs, "b", one, &b, nil),
		do(func() {
			if !fs.Exists("a") || !fs.Exists("b") || fs.Exists("c") {
				t.Errorf("first lookup: Exists a=%v b=%v c=%v, want true true false",
					fs.Exists("a"), fs.Exists("b"), fs.Exists("c"))
			}
		}),
		create(fs, "d", one, &d1, nil),
		create(fs, "d", one, &d2, nil),
		open(fs, "d", &g, &gErr),
		do(func() {
			if d1 == d2 {
				t.Fatal("two creates of one name returned the same inode")
			}
			if gErr != nil || g == nil || g.inode != d2 {
				t.Errorf("open after two creates of d: err %v, inode %p, want the later one %p (earlier %p)",
					gErr, inodeOf(g), d2, d1)
			}
			if fs.Exists("e") {
				t.Error("Exists(e) before its create")
			}
		}),
		create(fs, "e", one, &e, nil),
		open(fs, "e", &h, &hErr),
		do(func() {
			if !fs.Exists("e") || hErr != nil || h == nil || h.inode != e {
				t.Errorf("create after a lookup: Exists %v, open err %v, inode %p, want %p",
					fs.Exists("e"), hErr, inodeOf(h), e)
			}
		}),
	))
	k.Run()

	// Two processes at one instant: the first queues a create of q at the
	// MDS, the second begins an open of q before that create completes.
	var created *File
	pending := false
	k.SpawnCont(run(create(fs, "q", one, &created, nil)))
	k.SpawnCont(run(
		do(func() { pending = created == nil }),
		open(fs, "q", &q, &qErr),
	))
	k.Run()
	if !pending {
		t.Fatal("the create of q completed before the racing open began; the race is not exercised")
	}
	if qErr == nil || q != nil {
		t.Errorf("open racing a queued create: file %p, err %v; want no such file", q, qErr)
	}
	if created == nil || !fs.Exists("q") {
		t.Errorf("the create of q did not land after the racing open (file %p)", created)
	}
}

// inodeOf is the inode a handle refers to, or nil for no handle.
func inodeOf(f *File) *File {
	if f == nil {
		return nil
	}
	return f.inode
}

// TestNamespaceReset checks that Reset empties the namespace: a name looked
// up before Reset and a name whose create was logged but never looked up
// are both gone after it, and a create after Reset is found.
func TestNamespaceReset(t *testing.T) {
	k := simkernel.New()
	defer k.Shutdown()
	fs := MustNew(k, flatConfig())
	one := Layout{OSTs: []int{0}}
	var f *File
	k.SpawnCont(run(
		create(fs, "seen", one, &f, nil),
		do(func() {
			if !fs.Exists("seen") {
				t.Error("Exists(seen) after its create")
			}
		}),
		create(fs, "unseen", one, &f, nil),
	))
	k.Run()
	k.Reset()
	if err := fs.Reset(flatConfig()); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("seen") || fs.Exists("unseen") {
		t.Errorf("after Reset: Exists seen=%v unseen=%v, want false false", fs.Exists("seen"), fs.Exists("unseen"))
	}
	var g *File
	var err error
	k.SpawnCont(run(create(fs, "next", one, &f, nil), open(fs, "next", &g, &err)))
	k.Run()
	if err != nil || g == nil || g.inode != f || fs.Exists("seen") {
		t.Errorf("create after Reset: open err %v, inode %p, want %p; Exists(seen) %v", err, inodeOf(g), f, fs.Exists("seen"))
	}
}
