package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Parse decodes a scenario spec from JSON. Input that is not a JSON
// object is refused with an error saying so. Unknown fields are rejected —
// a typoed axis name must fail loudly, not silently collapse an axis — and
// the decoded spec is validated.
func Parse(data []byte) (*Spec, error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) == 0 {
		return nil, fmt.Errorf("scenario: empty spec")
	}
	if trimmed[0] != '{' {
		return nil, fmt.Errorf("scenario: specs are JSON objects, but the input starts with %q", trimmed[0])
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	spec := &Spec{}
	if err := dec.Decode(spec); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// Load reads and parses a JSON scenario file (the extension is not
// checked).
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	spec, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, filepath.Base(path))
	}
	return spec, nil
}

// Marshal renders the spec as canonical indented JSON (the round-trip
// inverse of Parse).
func (s *Spec) Marshal() ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return buf.Bytes(), nil
}

// String summarizes the spec ("table1: 13 workloads × 1 user × 2 schemes").
func (s *Spec) String() string {
	var b strings.Builder
	name := s.Name
	if name == "" {
		name = "scenario"
	}
	wl, _ := s.workloadNames()
	pop, _ := s.populationUsers()
	schemes := len(s.Schemes)
	if schemes == 0 {
		schemes = 1
	}
	fmt.Fprintf(&b, "%s: %d workloads × %d users", name, len(wl), len(pop))
	if n := len(s.AmbientsC); n > 0 {
		fmt.Fprintf(&b, " × %d ambients", n)
	}
	if n := len(s.LimitsC); n > 0 {
		fmt.Fprintf(&b, " × %d limits", n)
	}
	fmt.Fprintf(&b, " × %d schemes", schemes)
	return b.String()
}
