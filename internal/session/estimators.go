package session

import (
	"fmt"

	"sqlprogress/internal/core"
)

// estimatorsByName instantiates one fresh estimator per name. Stateful
// estimators (the hybrids, the combiner) must never be shared across
// sessions, so every session gets its own instances.
func estimatorsByName(names []string) ([]core.Estimator, error) {
	out := make([]core.Estimator, len(names))
	for i, n := range names {
		e, err := core.NewEstimator(n)
		if err != nil {
			return nil, fmt.Errorf("session: %w", err)
		}
		out[i] = e
	}
	return out, nil
}
