package controller

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzParseDeployFile hardens the deploy-file parser — the one document the
// planner emits, ncctl reads, and ncd's /reload accepts. ParseDeployFile
// must never panic; for every file it accepts, NodeMessages and NodeTable
// must not panic for any node the file names; and re-encoding an accepted
// file must give back an equal one. Equality is of the encoded form: JSON
// cannot tell an empty optional map from an absent one.
func FuzzParseDeployFile(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		df, err := ParseDeployFile(raw)
		if err != nil {
			return
		}
		nodes := make(map[string]bool)
		for _, s := range df.Sessions {
			for n := range s.Roles {
				nodes[n] = true
			}
			for n := range s.Tables {
				nodes[n] = true
			}
		}
		for n := range nodes {
			if _, err := df.NodeMessages(n); err != nil {
				t.Fatalf("NodeMessages(%q) of a validated file: %v", n, err)
			}
			df.NodeTable(n)
		}
		enc, err := json.Marshal(df)
		if err != nil {
			t.Fatalf("marshal of a parsed file: %v", err)
		}
		back, err := ParseDeployFile(enc)
		if err != nil {
			t.Fatalf("re-parse of a marshalled file: %v\n%s", err, enc)
		}
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, again) {
			t.Fatalf("round trip changed the file:\n%s\n%s", enc, again)
		}
	})
}
