package chaostest

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestFailoverLogsGolden pins the failover logs of three seeded chaos
// schedules to testdata/failover_seed<N>.golden: which relay failed over,
// from which cloud instance to which, when each phase of the recovery
// completed on the virtual clock, and how many launches it took. The files
// are the record of how the deployment heals; a diff here is a change in
// failover behaviour, not a file to regenerate.
func TestFailoverLogsGolden(t *testing.T) {
	for _, seed := range []int64{5, 7, 11} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			events, _ := runSeededChaos(t, seed)
			epoch := time.Unix(0, 0)
			var b strings.Builder
			for _, ev := range events {
				fmt.Fprintf(&b, "%s %s→%s detected=%v launched=%v ready=%v recovered=%v attempts=%d\n",
					ev.Node, ev.OldInstance, ev.NewInstance, ev.DetectedAt.Sub(epoch), ev.LaunchedAt.Sub(epoch),
					ev.ReadyAt.Sub(epoch), ev.RecoveredAt.Sub(epoch), ev.LaunchAttempts)
			}
			want, err := os.ReadFile(filepath.Join("testdata", fmt.Sprintf("failover_seed%d.golden", seed)))
			if err != nil {
				t.Fatal(err)
			}
			if got := b.String(); got != string(want) {
				t.Fatalf("seed %d failover log differs from its golden:\ngot\n%swant\n%s", seed, got, want)
			}
		})
	}
}
