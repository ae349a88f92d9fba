package oosql

import (
	"strings"
	"testing"
)

// missNames are the four query shapes of benchmark/spec.go's plan.miss
// cycle, in the order testdata/tokens.golden lists them at price 1001
// (internal/plan's missTexts): its only inputs that are a select holding
// that literal.
var missNames = []string{"sel-k", "eq5-k", "eq6-k", "nested3-k"}

// BenchmarkFingerprint — the token-free lexer pass a plan.miss op runs on
// its text before it finds the template's plan, per template.
func BenchmarkFingerprint(b *testing.B) {
	var texts []string
	for _, s := range goldenInputs(b) {
		if strings.HasPrefix(s, "select") && strings.Contains(s, "1001") {
			texts = append(texts, s)
		}
	}
	if len(texts) != len(missNames) {
		b.Fatalf("%s lists %d plan.miss texts, want %d", tokensGolden, len(texts), len(missNames))
	}
	for i, src := range texts {
		b.Run(missNames[i], func(b *testing.B) {
			b.ReportAllocs()
			buf := make([]byte, 0, 256)
			for i := 0; i < b.N; i++ {
				if _, err := Fingerprint(src, buf[:0]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
