package publish

import (
	"context"
	"strings"
	"testing"

	"repro/internal/shred"
	"repro/internal/sqldb"
	"repro/internal/xmldom"
)

// load sets up a fresh database and loads d into it under s.
func load(s shred.Scheme, d *xmldom.Document) (*sqldb.Database, error) {
	db := sqldb.New()
	if err := s.Setup(db); err != nil {
		return nil, err
	}
	if err := s.Insert(context.Background(), db, 0, 0, d.Tokens()); err != nil {
		return nil, err
	}
	return db, nil
}

const doc = `<bib><book id="b1"><title>TCP</title></book><book id="b2"><title>Web</title></book></bib>`

func TestDocumentRoundTrip(t *testing.T) {
	d, err := xmldom.ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	s := shred.NewInterval(false)
	db, err := load(s, d)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := Document(&b, db, s); err != nil {
		t.Fatal(err)
	}
	if b.String() != doc {
		t.Errorf("published:\n%s", b.String())
	}
}

func TestResultSetEnvelope(t *testing.T) {
	d, _ := xmldom.ParseString(doc)
	s := shred.NewInterval(false)
	db, err := load(s, d)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := ResultSet(&b, db, s, `/bib/book/title`); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, frag := range []string{`<results query="/bib/book/title">`, `>TCP</match>`, `>Web</match>`} {
		if !strings.Contains(out, frag) {
			t.Errorf("result set missing %q:\n%s", frag, out)
		}
	}
	// The envelope itself is well-formed XML.
	if _, err := xmldom.ParseString(out); err != nil {
		t.Errorf("envelope does not parse: %v", err)
	}
}

func TestSubtrees(t *testing.T) {
	d, _ := xmldom.ParseString(doc)
	s := shred.NewInterval(false)
	db, err := load(s, d)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := Subtrees(&b, db, s, `/bib/book[@id='b2']`); err != nil {
		t.Fatal(err)
	}
	want := `<book id="b2"><title>Web</title></book>`
	if b.String() != want {
		t.Errorf("subtree = %s", b.String())
	}
}

func TestFragmentByID(t *testing.T) {
	d, _ := xmldom.ParseString(doc)
	s := shred.NewInterval(false)
	db, err := load(s, d)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := shred.Query(db, s, `/bib/book[@id='b1']`)
	if err != nil || rows.Len() != 1 {
		t.Fatalf("locate: %v %v", rows, err)
	}
	var b strings.Builder
	if err := Fragment(&b, db, s, rows.Data[0][0].Int()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "<title>TCP</title>") {
		t.Errorf("fragment = %s", b.String())
	}
	if err := Fragment(&b, db, s, 99999); err == nil {
		t.Error("bogus id accepted")
	}
}
