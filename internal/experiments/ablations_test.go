package experiments

import "testing"

func TestAblationCoLocationShape(t *testing.T) {
	r := ablationCoLocation(1)
	if r.Metrics["coloc_volumes"] > r.Metrics["scatter_volumes"] {
		t.Errorf("co-location used more volumes (%v) than scatter (%v)",
			r.Metrics["coloc_volumes"], r.Metrics["scatter_volumes"])
	}
}

func TestAblationChunkSizeShape(t *testing.T) {
	r := ablationChunkSize(1)
	// A whole-file "chunk" (one worker) must be slower than 4 GB chunks
	// spread across workers.
	if r.Metrics["mbs_cs40000"] >= r.Metrics["mbs_cs4000"] {
		t.Errorf("single chunk (%v MB/s) should be slower than 4 GB chunks (%v MB/s)",
			r.Metrics["mbs_cs40000"], r.Metrics["mbs_cs4000"])
	}
}

func TestAblationBatchingShape(t *testing.T) {
	r := ablationBatching(1)
	if r.Metrics["msgs_512"]*10 > r.Metrics["msgs_1"] {
		t.Errorf("default batching (%v msgs) should use >10x fewer messages than per-file jobs (%v msgs)",
			r.Metrics["msgs_512"], r.Metrics["msgs_1"])
	}
}

func TestAblationLANFreeShape(t *testing.T) {
	r := ablationLANFree(1)
	if r.Metrics["slowdown"] <= 1 {
		t.Errorf("server-mediated path should be slower: slowdown = %v", r.Metrics["slowdown"])
	}
}

func TestReclamationShape(t *testing.T) {
	r := reclamation(1)
	if r.Metrics["live_after"] <= r.Metrics["live_before"] {
		t.Errorf("reclaim did not raise the live fraction: %v -> %v",
			r.Metrics["live_before"], r.Metrics["live_after"])
	}
	if r.Metrics["bytes_freed_gb"] <= 0 {
		t.Error("no bytes freed")
	}
}
