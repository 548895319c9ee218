package main

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// costSlack absorbs floating-point noise when comparing plan costs that
// were summed in different orders.
const costSlack = 1e-9

// checkBudget fails when a recommendation does not fit its space budget.
// A budget of 0 means unconstrained.
func checkBudget(sizeBytes, budgetBytes int64) error {
	if budgetBytes > 0 && sizeBytes > budgetBytes {
		return fmt.Errorf("recommendation takes %d bytes, over the %d-byte budget", sizeBytes, budgetBytes)
	}
	return nil
}

// checkCost fails when a recommendation costs more than the initial
// configuration it was meant to improve.
func checkCost(cost, initial float64) error {
	if cost > initial*(1+costSlack) {
		return fmt.Errorf("recommendation costs %.6g, more than the initial configuration's %.6g", cost, initial)
	}
	return nil
}

// checkDemanded fails when the explain report shows a structure that no
// statement demanded, directly or through the relaxation that produced
// it. Structures of the §2 optimal configuration must each name a
// demanding statement (required indexes are exempt). A structure the
// relaxation created is a merge, split or prefix product of demanded
// structures; the report lists its demand only when the product
// coincides with a requested structure, so it passes when a
// transformation of the winning lineage introduced it, or when it is in
// carried — the previous recommendation, which a warm start seeds the
// search with and which passed this check itself. Anything else fails.
func checkDemanded(rep *core.ExplainReport, carried map[string]bool) error {
	if rep == nil {
		return fmt.Errorf("no explain report")
	}
	var missing []string
	for _, sd := range rep.Structures {
		if sd.Outcome == "required" || len(sd.DemandedBy) > 0 {
			continue
		}
		if sd.Outcome == "created" && (len(sd.Events) > 0 || carried[sd.ID]) {
			continue
		}
		missing = append(missing, sd.Outcome+" "+sd.ID)
	}
	if len(missing) > 0 {
		return fmt.Errorf("%d structure(s) demanded by no statement: %s", len(missing), strings.Join(missing, ", "))
	}
	return nil
}
