// Package simkernel is the contblock fixture's mirror of the kernel
// surface: the fixture loads under the real simkernel import path so the
// analyzer's package-keyed blocklist and *ContProc signature rule engage
// exactly as they do in-tree.
package simkernel

import "time"

type Time int64

type Proc struct{ id int }

type ContProc Proc

type Cont interface{ Step(c *ContProc) bool }

func (p *Proc) Wake()   {}
func (p *Proc) Resume() {}

func (c *ContProc) Proc() *Proc             { return (*Proc)(c) }
func (c *ContProc) Sleep(d time.Duration)   {}
func (c *ContProc) SleepUntil(at Time) bool { return true }
func (c *ContProc) Call(m Cont) bool        { return true }

type Resource struct{ cap int }

func (r *Resource) Release()                     {}
func (r *Resource) AcquireCont(c *ContProc) bool { return true }

type Kernel struct{ now Time }

func (k *Kernel) Run() Time                   { return k.now }
func (k *Kernel) RunUntil(deadline Time) Time { return k.now }
func (k *Kernel) Stop()                       {}
