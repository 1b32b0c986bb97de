package scenario

// CompilePoint resolves one grid point for execution as Run does (point),
// unless its job list would name more than limit files: a writer count in
// the billions is a valid spec, but naming it is no unit test's work. It
// reports whether it compiled the point.
func CompilePoint(s *Scenario, p Params, limit int) (bool, error) {
	c, err := s.resolve(p)
	if err != nil {
		return false, err
	}
	names := 0
	switch c.kind {
	case KindOpenStorm:
		names = c.writers
	case KindJobMix:
		for _, jc := range c.jobs {
			names += jc.procs*jc.phases*max(jc.files, 1) + jc.phases
		}
	}
	if names > limit {
		return false, nil
	}
	_, err = s.point(p)
	return true, err
}
