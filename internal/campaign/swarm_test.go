package campaign

import (
	"context"
	"reflect"
	"testing"
	"time"
)

// TestSwarmWarmParallelEquivalence is the fleet acceptance gate for
// the warm-pool engine: a 3-drone campaign (peer flood sweep plus a
// cross-drone replay point) must produce byte-identical records at
// every worker count, warm or cold. Swarm systems carry N members'
// worth of resettable state over one shared fabric; any member state
// the Reset path misses, or any cross-member aliasing in the pooled
// Results, shows up here as a parallel- or mode-dependent diff.
func TestSwarmWarmParallelEquivalence(t *testing.T) {
	points := Expand("swarm-peer-flood", nil, []Sweep{
		{Key: "attack.rate", Values: []float64{10000, 20000}},
	})
	points = append(points, Expand("swarm-cross-replay", nil, nil)...)
	spec := Spec{
		Points:   points,
		Runs:     2,
		BaseSeed: 7,
		// Long enough that the flood (8 s) and the replay (12 s)
		// both fire: equivalence over flights where nothing happened
		// would not test the rewind of fired fleet state.
		Duration: 16 * time.Second,
	}

	baseline := spec
	baseline.ColdStart = true
	baseline.Parallel = 2
	want, _, _, err := Run(context.Background(), baseline)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 3, 8} {
		warm := spec
		warm.Parallel = par
		got, _, _, err := Run(context.Background(), warm)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("parallel=%d record %d differs from cold baseline:\n warm: %+v\n cold: %+v",
					par, i, got[i], want[i])
			}
		}
	}
}
