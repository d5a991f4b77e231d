package net

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/fleet/wire"
)

// predictorStore is a bounded memo of decoded predictors, keyed by ID and
// holding at most wire.MaxPredictors, oldest first. Every shard naming one
// ID shares one *core.Predictor, which is read-only (predicting never
// mutates it).
type predictorStore struct {
	mu      sync.Mutex
	entries []heldPredictor
}

type heldPredictor struct {
	id   string
	pred *core.Predictor
}

// decoded is the process-wide store behind every Server's own: a process
// hosting several Servers decodes each document once. A Server still
// advertises only what its own store holds, so a new Server counts as a
// restarted worker and is sent the document again.
var decoded predictorStore

// pins returns the held predictors, for a new connection to advertise
// (ids, oldest first) and keep (by ID): later eviction from the store
// cannot take them from a connection that advertised them.
func (s *predictorStore) pins() (ids []string, pinned map[string]*core.Predictor) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pinned = make(map[string]*core.Predictor, len(s.entries))
	for _, e := range s.entries {
		ids = append(ids, e.id)
		pinned[e.id] = e.pred
	}
	return ids, pinned
}

func (s *predictorStore) get(id string) *core.Predictor {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.entries {
		if e.id == id {
			return e.pred
		}
	}
	return nil
}

// put stores p under id, evicting the oldest entry past the bound, and
// returns the predictor the store holds for id: p, or the one a
// concurrent put stored first.
func (s *predictorStore) put(id string, p *core.Predictor) *core.Predictor {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.entries {
		if e.id == id {
			return e.pred
		}
	}
	s.entries = append(s.entries, heldPredictor{id: id, pred: p})
	if n := len(s.entries); n > wire.MaxPredictors {
		s.entries = append(s.entries[:0], s.entries[n-wire.MaxPredictors:]...)
	}
	return p
}

// loadPredictor returns the predictor of a document whose ID the caller
// has verified, decoding it only when neither this Server nor the process
// holds the ID. Undecodable documents are stored nowhere.
func (s *Server) loadPredictor(id string, doc []byte) (*core.Predictor, error) {
	if p := s.preds.get(id); p != nil {
		return p, nil
	}
	p := decoded.get(id)
	if p == nil {
		var err error
		if p, err = wire.DecodePredictor(doc); err != nil {
			return nil, err
		}
		p = decoded.put(id, p)
	}
	return s.preds.put(id, p), nil
}

// resolvePredictor returns a request's predictor. A request carrying its
// document has the bytes checked against its ID, then decoded (see
// loadPredictor) and pinned on the connection; one naming only an ID must
// name a predictor the connection pinned. Both failures are the request's
// fault, so the caller answers them with an error frame and keeps the
// connection.
func (s *Server) resolvePredictor(req *wire.ShardRequest, pinned map[string]*core.Predictor) (*core.Predictor, error) {
	id := req.PredictorID
	if id == "" {
		return nil, nil
	}
	if len(req.Predictor) == 0 {
		if p := pinned[id]; p != nil {
			return p, nil
		}
		return nil, fmt.Errorf("predictor %s is not held on this connection; send its document", id)
	}
	if got := fleet.PredictorID(req.Predictor); got != id {
		return nil, fmt.Errorf("predictor document hashes to %s, not its predictor_id %s", got, id)
	}
	p, err := s.loadPredictor(id, req.Predictor)
	if err != nil {
		return nil, err
	}
	pinned[id] = p
	return p, nil
}
