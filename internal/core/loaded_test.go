package core

import (
	"testing"

	"repro/internal/xmlgen"
)

// TestLoadedProbesOncePerCommit: Loaded runs its /* probe once per
// commit — two health checks at one commit cost one query, an insert
// makes the next one probe again — and a canceled load, which commits
// nothing, leaves it reporting false.
func TestLoadedProbesOncePerCommit(t *testing.T) {
	doc := xmlgen.Auction(xmlgen.Config{Factor: 0.05, Seed: 11})
	st, err := Open(Dewey)
	if err != nil {
		t.Fatal(err)
	}
	queries := func() uint64 { return st.DB().Metrics().Queries }

	if st.Loaded() {
		t.Fatal("an empty store is Loaded")
	}
	ctx := cancelAfter(1)
	if err := st.LoadDocumentContext(ctx, doc); err == nil || ctx.checks.Load() >= 0 {
		t.Fatalf("the load was not canceled partway through: %v", err)
	}
	if st.Loaded() {
		t.Fatal("Loaded after a canceled load")
	}
	if err := st.LoadDocument(doc); err != nil {
		t.Fatal(err)
	}
	for _, step := range []string{"load", "insert"} {
		q0 := queries()
		if !st.Loaded() || !st.Loaded() {
			t.Fatalf("after the %s: Loaded is false", step)
		}
		if n := queries() - q0; n != 1 {
			t.Errorf("after the %s: two Loaded calls ran %d queries, want 1", step, n)
		}
		if err := st.InsertXML(1, 0, []byte(`<note>x</note>`)); err != nil {
			t.Fatal(err)
		}
	}
}
