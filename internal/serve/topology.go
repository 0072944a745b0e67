package serve

import (
	"fmt"
	"strings"

	"cllm/internal/enum"
)

// Role says which serving stages a fleet role group runs. A unified group
// serves requests end to end (the classic fleet); a prefill group computes
// prompts and first tokens only, handing the KV cache off to a decode
// group that generates the remaining tokens. Disaggregating the two stages
// across TEE boundaries is the paper-shaped play: cGPU prefills fast but
// pays the encrypted bounce buffer on every transfer, while CPU TEEs
// decode near-natively at a fraction of the rental price.
type Role int

const (
	// RoleUnified serves prefill and decode on the same replica.
	RoleUnified Role = iota
	// RolePrefill serves prompts up to the first token, then hands the
	// computed KV cache off to a decode replica.
	RolePrefill
	// RoleDecode admits handed-off requests with pre-computed KV and
	// generates their remaining tokens.
	RoleDecode
)

var roles = enum.Table[Role]{
	Names:  []string{RoleUnified: "unified", RolePrefill: "prefill", RoleDecode: "decode"},
	Alias:  map[string]Role{"": RoleUnified},
	Prefix: "serve", Noun: "role", Type: "Role",
}

// String names the role as the CLI spells it.
func (r Role) String() string { return roles.String(r) }

// ParseRole resolves a CLI role name.
func ParseRole(s string) (Role, error) { return roles.Parse(s) }

// RoleGroup is one homogeneous slice of a fleet topology: Replicas copies
// of Backend serving Role, dispatched to per Policy. Groups of one stage
// (all prefill groups, or all decode groups) must agree on Policy — the
// stage has one dispatcher.
type RoleGroup struct {
	Role     Role
	Backend  Backend
	Replicas int
	Policy   LBPolicy
}

// Topology describes a fleet as role groups. Either every group is
// RoleUnified (a flat, possibly heterogeneous fleet behind one load
// balancer — the classic RunFleet shape when there is a single group), or
// no group is: a disaggregated topology needs at least one prefill and one
// decode group, and the dispatch layer routes every request
// prefill→decode with an explicitly priced KV handoff between the stages.
type Topology struct {
	Groups []RoleGroup
}

// Unified wraps the classic homogeneous fleet triple as a one-group
// topology — the shape RunFleet delegates to.
func Unified(be Backend, fc FleetConfig) Topology {
	return Topology{Groups: []RoleGroup{{
		Role: RoleUnified, Backend: be, Replicas: fc.Replicas, Policy: fc.Policy,
	}}}
}

// Disaggregated reports whether the topology splits prefill from decode.
func (t Topology) Disaggregated() bool {
	for _, g := range t.Groups {
		if g.Role != RoleUnified {
			return true
		}
	}
	return false
}

// CheckFaults rejects the fault knobs a disaggregated topology cannot
// honour yet: fault injection (a crash would strand in-flight handoffs)
// and non-FIFO admission (deadlines do not survive the handoff edge).
func (t Topology) CheckFaults(f FaultConfig) error {
	switch {
	case !t.Disaggregated():
	case f.MTBFSec > 0:
		return FieldError("Faults.MTBFSec", "serve: fault injection is not supported with disaggregated topologies (a crash would strand in-flight handoffs)")
	case len(f.Plan) > 0:
		return FieldError("Faults.Plan", "serve: fault injection is not supported with disaggregated topologies (a crash would strand in-flight handoffs)")
	case f.Admission != AdmitFIFO:
		return FieldError("Faults.Admission", "serve: admission policy %v is not supported with disaggregated topologies (deadlines do not survive the handoff edge)", f.Admission)
	}
	return nil
}

// Replicas is the topology's total replica count (after defaulting).
func (t Topology) Replicas() int {
	n := 0
	for _, g := range t.Groups {
		r := g.Replicas
		if r <= 0 {
			r = 1
		}
		n += r
	}
	return n
}

// HourlyUSD is the whole fleet's rent: each group's replica rent
// (Backend.HourlyUSD) times its replica count (after defaulting), summed
// in group order.
func (t Topology) HourlyUSD() (float64, error) {
	total := 0.0
	for _, g := range t.Groups {
		per, err := g.Backend.HourlyUSD()
		if err != nil {
			return 0, err
		}
		total += per * float64(max(g.Replicas, 1))
	}
	return total, nil
}

// validate checks the role structure and normalizes replica counts in
// place (a group's zero Replicas defaults to 1, mirroring FleetConfig).
func (t *Topology) validate() error {
	if len(t.Groups) == 0 {
		return fmt.Errorf("serve: topology needs at least one role group")
	}
	var groups [RoleDecode + 1]int // indexed by the role checked below
	for i := range t.Groups {
		g := &t.Groups[i]
		if g.Replicas <= 0 {
			g.Replicas = 1
		}
		for _, err := range []error{roles.Check(g.Role), g.Policy.Validate()} {
			if err != nil {
				return fmt.Errorf("%w in topology group %d", err, i)
			}
		}
		groups[g.Role]++
	}
	unified, prefill, decode := groups[RoleUnified], groups[RolePrefill], groups[RoleDecode]
	if unified > 0 && unified != len(t.Groups) {
		return fmt.Errorf("serve: topology mixes unified and prefill/decode groups (split every group by stage, or none)")
	}
	if unified == 0 && (prefill == 0 || decode == 0) {
		return fmt.Errorf("serve: disaggregated topology needs at least one prefill and one decode group (got %d prefill, %d decode)", prefill, decode)
	}
	// One dispatcher per stage: its policy must be unambiguous.
	for role := range groups {
		var pol LBPolicy
		seen := false
		for _, g := range t.Groups {
			if g.Role != Role(role) {
				continue
			}
			if seen && g.Policy != pol {
				return fmt.Errorf("serve: %s groups disagree on dispatch policy (%s vs %s) — one stage has one dispatcher", g.Role, pol, g.Policy)
			}
			pol, seen = g.Policy, true
		}
	}
	return nil
}

// String renders the topology in the CLI's -topology syntax.
func (t Topology) String() string {
	var b strings.Builder
	for i, g := range t.Groups {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s:%d=%s", g.Backend.platformName(), g.Replicas, g.Role)
	}
	return b.String()
}

// Fleet is a validated topology ready to run. NewFleet/Fleet.Run is the
// construction path for every fixed multi-replica simulation: RunFleet
// (one unified group), disaggregated topologies and SizeFleetForSLO's
// candidate fleets all build their schedulers here. internal/autoscale's
// elastic replicas are built one at a time through Pool.Add via Drive.
type Fleet struct {
	topo Topology
}

// NewFleet validates a topology and returns the runnable fleet. The
// topology is copied; later mutation of the caller's slice is invisible.
func NewFleet(topo Topology) (*Fleet, error) {
	cp := Topology{Groups: append([]RoleGroup(nil), topo.Groups...)}
	if err := cp.validate(); err != nil {
		return nil, err
	}
	return &Fleet{topo: cp}, nil
}
