package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// EncodedPredictor is a trained predictor in the form that crosses process
// boundaries: its document exactly as a frame carries it, and that
// document's content address. Both are fixed at construction, so the ID
// always names these very bytes; a worker that already holds the ID is
// sent the ID alone. wire.EncodePredictor builds it from a predictor.
type EncodedPredictor struct {
	doc json.RawMessage
	id  string
}

// NewEncodedPredictor wraps a predictor document, validated and compacted
// once here: frames carry it verbatim, so the ID hashes exactly the bytes
// a worker receives.
func NewEncodedPredictor(doc []byte) (*EncodedPredictor, error) {
	wireDoc, err := json.Marshal(json.RawMessage(doc))
	if err != nil {
		return nil, fmt.Errorf("fleet: predictor document: %w", err)
	}
	return &EncodedPredictor{doc: wireDoc, id: PredictorID(wireDoc)}, nil
}

// Doc returns the document bytes. Callers must not modify them.
func (p *EncodedPredictor) Doc() json.RawMessage { return p.doc }

// ID returns the document's content address (see PredictorID).
func (p *EncodedPredictor) ID() string { return p.id }

// PredictorID is the content address of a predictor document: the
// lowercase-hex SHA-256 of its bytes.
func PredictorID(doc []byte) string {
	sum := sha256.Sum256(doc)
	return hex.EncodeToString(sum[:])
}
