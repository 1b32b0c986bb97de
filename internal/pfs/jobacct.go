package pfs

// Per-job traffic attribution. Co-scheduled applications share one file
// system; to reason about cross-job contention (who slowed whom, and by how
// much) the storage layer attributes every client-path operation to the job
// id carried by the issuing simulation process (simkernel.Proc.Job). Job 0
// is the unattributed bucket: interference generators, infrastructure
// processes and any run not registered as a job land there. Attribution
// changes no outcome, and costs an integer index per operation.
//
// Attribution covers the client path — every target write (OST.writeCont,
// under FileOp and OSTWriteOp alike), FileOp's reads and every metadata
// operation. Server-side helpers that move data on a job's behalf under their own
// processes (staging-node drains) account to their own process's job tag,
// which is 0 unless the helper was spawned with one.

// JobIO aggregates one job's storage traffic.
type JobIO struct {
	// BytesWritten is the total bytes accepted from the job's writes.
	BytesWritten float64
	// BytesRead is the total bytes served to the job's reads.
	BytesRead float64
	// WriteOps counts the job's write operations.
	WriteOps int
	// ReadOps counts the job's read operations (per-chunk).
	ReadOps int
	// MetaOps counts the job's metadata operations (create/open/close).
	MetaOps int
}

// accountWrite charges a write to job on this OST. The per-job table is a
// dense slice indexed by job id, grown on first sight of a job; steady-state
// accounting is a bounds check and two adds.
func (o *OST) accountWrite(job int, bytes float64) {
	for len(o.jobAcct) <= job {
		o.jobAcct = append(o.jobAcct, JobIO{})
	}
	a := &o.jobAcct[job]
	a.BytesWritten += bytes
	a.WriteOps++
}

// accountRead charges a read chunk to job on this OST.
func (o *OST) accountRead(job int, bytes float64) {
	for len(o.jobAcct) <= job {
		o.jobAcct = append(o.jobAcct, JobIO{})
	}
	a := &o.jobAcct[job]
	a.BytesRead += bytes
	a.ReadOps++
}

// JobIO returns this OST's accumulated traffic for job (zero value if the
// job never touched this target).
func (o *OST) JobIO(job int) JobIO {
	if job < 0 || job >= len(o.jobAcct) {
		return JobIO{}
	}
	return o.jobAcct[job]
}

// accountOp charges a metadata operation to job.
func (m *MDS) accountOp(job int) {
	for len(m.jobOps) <= job {
		m.jobOps = append(m.jobOps, 0)
	}
	m.jobOps[job]++
}

// JobOps returns the number of metadata operations job has issued.
func (m *MDS) JobOps(job int) int {
	if job < 0 || job >= len(m.jobOps) {
		return 0
	}
	return m.jobOps[job]
}

// RegisterJob names a new job and returns its id (ids start at 1; 0 is the
// unattributed bucket). Tag the job's processes with the id — via
// simkernel.Kernel.SpawnContJob or mpisim.Options.Job — and the file system
// attributes their traffic. Registration order is part of the simulation's
// deterministic state: co-scheduled jobs must be registered in spec order.
func (fs *FileSystem) RegisterJob(name string) int {
	fs.jobs = append(fs.jobs, name)
	return len(fs.jobs)
}

// JobCount returns the number of registered jobs.
func (fs *FileSystem) JobCount() int { return len(fs.jobs) }

// JobName returns the registered name for a job id ("" for the
// unattributed bucket or unknown ids).
func (fs *FileSystem) JobName(id int) string {
	if id < 1 || id > len(fs.jobs) {
		return ""
	}
	return fs.jobs[id-1]
}

// JobIO aggregates job's traffic across every OST and the MDS.
func (fs *FileSystem) JobIO(job int) JobIO {
	var t JobIO
	for _, o := range fs.OSTs {
		a := o.JobIO(job)
		t.BytesWritten += a.BytesWritten
		t.BytesRead += a.BytesRead
		t.WriteOps += a.WriteOps
		t.ReadOps += a.ReadOps
	}
	t.MetaOps = fs.MDS.JobOps(job)
	return t
}
