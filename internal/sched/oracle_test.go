package sched

import "github.com/h2p-sim/h2p/internal/units"

// decideSerial is the scalar reference implementation of a control interval,
// the oracle the batch kernels are refereed against: one Choose on the plane
// utilization, then per-server evaluation through the interpolated look-up
// calls. DecideBatchCold (and Decide, its single-group adapter) must be
// bit-identical to it for any input — same decisions, or the same error
// text.
func (c *Controller) decideSerial(us []float64, scheme Scheme, cold units.Celsius, sc *Scratch) (Decision, error) {
	planeU, err := PlaneUtilization(us, scheme)
	if err != nil {
		return Decision{}, err
	}
	setting, _, err := c.Choose(planeU, cold)
	if err != nil {
		return Decision{}, err
	}
	sc.grow(len(us))
	if err := effectiveInto(sc.eff, us, scheme); err != nil {
		return Decision{}, err
	}
	d := Decision{
		Scheme:            scheme,
		PlaneU:            planeU,
		Setting:           setting,
		PerServerPower:    sc.power,
		PerServerCPUPower: sc.cpuPower,
	}
	spec := c.Space.Spec()
	if scheme == LoadBalance {
		// Balancing makes every server identical: evaluate the (interpolated)
		// per-server terms once and broadcast, instead of re-running the
		// trilinear lookups per server. eff[i] are all the same value, so the
		// broadcast is bit-identical to the per-server loop below.
		u := sc.eff[0]
		pw := c.PowerAt(setting, u, cold)
		cp := spec.Power(u)
		for i := range sc.eff {
			d.PerServerPower[i] = pw
			d.PerServerCPUPower[i] = cp
		}
		if t := c.Space.CPUTemp(u, setting.Flow, setting.Inlet); t > d.MaxCPUTemp {
			d.MaxCPUTemp = t
		}
		return d, nil
	}
	for i, u := range sc.eff {
		d.PerServerPower[i] = c.PowerAt(setting, u, cold)
		d.PerServerCPUPower[i] = spec.Power(u)
		if t := c.Space.CPUTemp(u, setting.Flow, setting.Inlet); t > d.MaxCPUTemp {
			d.MaxCPUTemp = t
		}
	}
	return d, nil
}
