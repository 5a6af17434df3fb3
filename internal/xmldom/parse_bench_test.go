package xmldom_test

import (
	"testing"

	"repro/internal/xmldom"
	"repro/internal/xmlgen"
)

// BenchmarkParse parses the factor-1 auction document (about 2.5 MiB)
// into a DOM.
func BenchmarkParse(b *testing.B) {
	src := []byte(xmlgen.AuctionXML(xmlgen.Config{Factor: 1, Seed: 1}))
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xmldom.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}
