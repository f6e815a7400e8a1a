package oracle

import (
	"math"
	"runtime"

	"hipo/internal/discretize"
	"hipo/internal/geom"
	"hipo/internal/model"
	"hipo/internal/pdcs"
	"hipo/internal/power"
	"hipo/internal/schedule"
)

// ExtractAll is the reference PDCS extraction, per charger type: the
// pipeline as it stood before the spatial prefilters, batched line of
// sight, pooling, and streaming reduction. pdcs.ExtractAll must reproduce
// it bit for bit; it is the reference side of the bit-identity wall
// (TestBitIdentityWall in internal/pdcs).
//
// Positions are generated on an index-free clone, so no obstacle is pruned
// from ring cutting. Every position then scans every device, answers each
// candidate ray with its own line-of-sight query on sc, and sweeps
// Algorithm 1 with a per-position signature map. sc is swept as given: with
// a visibility index attached the queries go through it, without one they
// scan every obstacle. All candidates of a type are concatenated before
// pdcs.FilterDominated.
func ExtractAll(sc *model.Scenario, eps1 float64) [][]pdcs.Candidate {
	out := make([][]pdcs.Candidate, len(sc.ChargerTypes))
	for q, ct := range sc.ChargerTypes {
		positions := discretize.CandidatePositions(sc.Clone(), q, discretize.Config{Eps1: eps1, BruteForceVisibility: true})
		levels := make([]power.Levels, len(sc.DeviceTypes))
		for t := range levels {
			pp := sc.Power[q][t]
			levels[t] = power.NewLevels(pp.A, pp.B, ct.DMin, ct.DMax, eps1)
		}
		perPos := schedule.RunPool(len(positions), runtime.GOMAXPROCS(0), func(i int) []pdcs.Candidate {
			return sweep(sc, q, positions[i], levels)
		})
		var cands []pdcs.Candidate
		for _, cs := range perPos {
			cands = append(cands, cs...)
		}
		out[q] = pdcs.FilterDominated(cands, len(sc.Devices))
	}
	return out
}

// sweep is Algorithm 1 at p. Eligible devices pass the exact predicates:
// distance within [DMin, DMax] (±geom.Eps), p inside the device's receiving
// sector, clear line of sight, and positive approximated power. Each
// critical orientation φ = θ_k + α/2 yields the set of eligible devices it
// covers; the first occurrence of every distinct set is kept, minus the
// sets strictly contained in another set at p.
func sweep(sc *model.Scenario, q int, p geom.Vec, levels []power.Levels) []pdcs.Candidate {
	ct := sc.ChargerTypes[q]
	dmin2 := (ct.DMin - geom.Eps) * (ct.DMin - geom.Eps)
	if ct.DMin < geom.Eps {
		dmin2 = 0
	}
	dmax2 := (ct.DMax + geom.Eps) * (ct.DMax + geom.Eps)
	var devs []pdcs.DevPower
	var thetas []float64
	for j, dev := range sc.Devices {
		delta := dev.Pos.Sub(p)
		d2 := delta.Len2()
		if d2 < dmin2 || d2 > dmax2 {
			continue
		}
		d := math.Sqrt(d2)
		if alpha := sc.DeviceTypes[dev.Type].Alpha; alpha < 2*math.Pi-geom.Eps {
			cosHalf := math.Cos(alpha / 2)
			if d <= geom.Eps || delta.Neg().Dot(geom.FromAngle(dev.Orient)) < d*cosHalf-geom.Eps*math.Max(1, d) {
				continue
			}
		}
		if !sc.LineOfSight(p, dev.Pos) {
			continue
		}
		if pw := levels[dev.Type].Approx(d); pw > 0 {
			devs = append(devs, pdcs.DevPower{Device: j, Power: pw})
			thetas = append(thetas, delta.Angle())
		}
	}
	if len(devs) == 0 {
		return nil
	}
	if ct.Alpha >= 2*math.Pi-geom.Eps {
		// Omnidirectional charger: a single strategy covers everything.
		return []pdcs.Candidate{{S: model.Strategy{Pos: p, Type: q}, Covers: devs}}
	}
	half := ct.Alpha / 2
	var cands []pdcs.Candidate
	seen := make(map[string]bool)
	for _, theta := range thetas {
		phi := geom.NormAngle(theta + half)
		var covers []pdcs.DevPower
		var sig []byte
		for i, f := range thetas {
			if geom.AbsAngleDiff(phi, f) <= half+geom.Eps {
				covers = append(covers, devs[i])
				d := devs[i].Device
				sig = append(sig, byte(d), byte(d>>8), byte(d>>16), byte(d>>24))
			}
		}
		if !seen[string(sig)] {
			seen[string(sig)] = true
			cands = append(cands, pdcs.Candidate{S: model.Strategy{Pos: p, Orient: phi, Type: q}, Covers: covers})
		}
	}
	var out []pdcs.Candidate
	for _, c := range cands {
		dominated := false
		for _, o := range cands {
			dominated = dominated || len(c.Covers) < len(o.Covers) && subset(c.Covers, o.Covers)
		}
		if !dominated {
			out = append(out, c)
		}
	}
	return out
}

// subset reports whether a's device set is contained in b's (both sorted
// by device).
func subset(a, b []pdcs.DevPower) bool {
	i := 0
	for _, x := range a {
		for i < len(b) && b[i].Device < x.Device {
			i++
		}
		if i >= len(b) || b[i].Device != x.Device {
			return false
		}
	}
	return true
}
