package server

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// Cross-task consensus: GET /api/consensus?estimator=majority|em|kos
// (served by internal/fabric from every shard's Votes and TaskMeta)
// aggregates every answer on the node into one vote graph and returns
// per-task consensus labels under the chosen estimator. Unlike
// /api/result, which aggregates each task's own quorum in isolation, the
// graph estimators (EM, KOS) pool evidence across tasks: a worker who
// disagrees with consensus everywhere is down-weighted everywhere, which
// is what makes them robust to spammers and adversaries.

// ConsensusResponse is the payload of GET /api/consensus.
type ConsensusResponse struct {
	Estimator string `json:"estimator"`
	// Labels maps task id -> per-record consensus labels (-1 for records
	// with no votes yet).
	Labels map[int][]int `json:"labels"`
	// WorkerScores is the estimator's per-worker signal: estimated accuracy
	// for "em", reliability (negative = adversarial) for "kos". Empty for
	// "majority".
	WorkerScores map[int]float64 `json:"worker_scores,omitempty"`
	// ModelTasks lists (ascending) the tasks auto-finalized by the hybrid
	// plane's model. Their served consensus (/api/result) is the model's
	// answer, but model answers never enter the vote graph here — Labels
	// still reflects human votes only, so the graph estimators keep judging
	// workers against humans, not against the model's own output.
	ModelTasks []int `json:"model_tasks,omitempty"`
}

// Consensus fetches cross-task consensus labels from the server under the
// given estimator ("majority", "em" or "kos").
func (c *Client) Consensus(estimator string) (ConsensusResponse, error) {
	var out ConsensusResponse
	r, err := c.HTTP.Get(c.BaseURL + "/api/consensus?estimator=" + estimator)
	if err != nil {
		return out, err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		return out, fmt.Errorf("consensus: %s", r.Status)
	}
	// encoding/json round-trips int-keyed maps as quoted integer keys.
	err = json.NewDecoder(r.Body).Decode(&out)
	return out, err
}
