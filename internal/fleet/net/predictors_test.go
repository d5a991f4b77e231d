package net

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/fleet/wire"
)

// leafDoc is a minimal valid predictor document: two single-leaf trees.
func leafDoc(skin float64) []byte {
	return []byte(fmt.Sprintf(`{"algorithm":"REPTree","skin":{"root":{"v":%g,"leaf":true}},"screen":{"root":{"v":31,"leaf":true}}}`, skin))
}

func loadDoc(s *Server, doc []byte) (*core.Predictor, error) {
	return s.loadPredictor(fleet.PredictorID(doc), doc)
}

// TestPredictorStoreMemo: one ID decodes once — every later load of it
// returns the same shared predictor — other IDs decode on their own,
// undecodable documents are never stored, each store stays within
// wire.MaxPredictors, and a connection keeps what it pinned after the
// store evicts it.
func TestPredictorStoreMemo(t *testing.T) {
	s := &Server{}
	a, err := loadDoc(s, leafDoc(30))
	if err != nil {
		t.Fatal(err)
	}
	if again, err := loadDoc(s, leafDoc(30)); err != nil || again != a {
		t.Fatalf("same ID decoded to a new predictor (%v)", err)
	}
	if other, err := loadDoc(s, leafDoc(32)); err != nil || other == a {
		t.Fatalf("another ID shared the first one's predictor (%v)", err)
	}
	misfit := []byte(`{"algorithm":"REPTree","skin":{"root":{"attr":7,"thr":1,"l":{"v":1,"leaf":true},"r":{"v":2,"leaf":true}}},"screen":{"root":{"v":1,"leaf":true}}}`)
	if _, err := loadDoc(s, misfit); !errors.Is(err, core.ErrModelShape) {
		t.Fatalf("misfit predictor: err = %v, want core.ErrModelShape", err)
	}
	if decoded.get(fleet.PredictorID(misfit)) != nil {
		t.Fatal("an undecodable document was stored")
	}
	ids, pinned := s.preds.pins()
	if len(ids) != 2 || ids[0] != fleet.PredictorID(leafDoc(30)) || pinned[ids[0]] != a {
		t.Fatalf("store advertises %v, want the two decodable documents, oldest first", ids)
	}
	for i := 0; i < 2*wire.MaxPredictors; i++ {
		if _, err := loadDoc(s, leafDoc(40+float64(i))); err != nil {
			t.Fatal(err)
		}
		for _, st := range []*predictorStore{&s.preds, &decoded} {
			if ids, _ := st.pins(); len(ids) > wire.MaxPredictors {
				t.Fatalf("store holds %d predictors, bound %d", len(ids), wire.MaxPredictors)
			}
		}
	}
	if fresh, err := loadDoc(s, leafDoc(30)); err != nil || fresh == a {
		t.Fatalf("evicted ID still stored (%v)", err)
	}
	if pinned[fleet.PredictorID(leafDoc(30))] != a {
		t.Fatal("eviction reached a connection's pins")
	}
}

// TestPredictorStorePerServer: a second Server in the process reuses the
// first one's decoded predictor, but advertises nothing until a document
// reaches it — to a coordinator it is a restarted worker.
func TestPredictorStorePerServer(t *testing.T) {
	doc := leafDoc(28.5)
	a, err := loadDoc(&Server{}, doc)
	if err != nil {
		t.Fatal(err)
	}
	restarted := &Server{}
	if ids, _ := restarted.preds.pins(); len(ids) != 0 {
		t.Fatalf("a new Server advertises %v", ids)
	}
	if b, err := loadDoc(restarted, doc); err != nil || b != a {
		t.Fatalf("the process decoded one document twice (%v)", err)
	}
	if ids, _ := restarted.preds.pins(); len(ids) != 1 || ids[0] != fleet.PredictorID(doc) {
		t.Fatalf("after the document arrived the Server advertises %v", ids)
	}
}

// TestPredictorStoreConcurrent: shards of one run loading the same cold
// document at once all end up with the one stored predictor.
func TestPredictorStoreConcurrent(t *testing.T) {
	s := &Server{}
	doc := leafDoc(29.5)
	const n = 8
	preds := make([]*core.Predictor, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := loadDoc(s, doc)
			if err != nil {
				t.Error(err)
			}
			preds[i] = p
		}(i)
	}
	wg.Wait()
	for i, p := range preds {
		if p == nil || p != preds[0] {
			t.Fatalf("load %d returned predictor %p, want the shared %p", i, p, preds[0])
		}
	}
}
