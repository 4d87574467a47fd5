package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
)

// EncodePlan writes the canonical JSON encoding of a plan: the
// PlanSummary, indented, with a trailing newline. It is the single code
// path behind `cmd/planner -json` and the service's POST /v1/plan, so
// the CLI and the API can never drift apart.
func EncodePlan(w io.Writer, p *core.Plan) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p.Summary())
}

// canonicalize re-encodes a decoded request value into its canonical
// byte form: encoding/json emits struct fields in declaration order and
// map keys sorted, so two bodies that decode to the same request —
// regardless of field order, whitespace, or unknown fields — produce
// identical bytes, and therefore the same cache key.
func canonicalize(req any) ([]byte, error) {
	b, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("service: canonicalizing request: %w", err)
	}
	return b, nil
}

// cacheKey derives the content address of v: SHA-256 over a namespace
// (the endpoint name for results, "recipe" or "input" for engine
// precomputations) and v's canonical bytes.
func cacheKey(namespace string, v any) (string, error) {
	canonical, err := canonicalize(v)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	io.WriteString(h, namespace)
	h.Write([]byte{0})
	h.Write(canonical)
	return hex.EncodeToString(h.Sum(nil)), nil
}
