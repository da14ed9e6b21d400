package rlnc

// Useless returns the number of received blocks that were not innovative
// (linearly dependent on earlier ones).
func (d *Decoder) Useless() int { return d.b.useless }

// AddBatch folds a run of received coded blocks into the recoding span and
// returns how many were innovative.
func (r *Recoder) AddBatch(blocks []CodedBlock) (int, error) {
	innovative := 0
	for i := range blocks {
		if err := r.params.checkBlock(blocks[i]); err != nil {
			return innovative, err
		}
		if r.span.insert(blocks[i].Coeffs, blocks[i].Payload) {
			innovative++
		}
	}
	return innovative, nil
}
