package gf

// This file names the coefficient fields of the field-size ablation. In
// GF(2) every coefficient is a single bit (carried as the byte 0 or 1, which
// the GF(2^8) kernels handle exactly, since GF(2) is a subfield), and the
// probability that a random packet is non-innovative is much higher than
// over GF(2^8) (Sec. III-B of the paper explains why tiny generations would
// need a larger field).

// Field selects which finite field the RLNC codec draws coefficients from.
type Field int

const (
	// GF256 is GF(2^8), the paper's default field.
	GF256 Field = iota + 1
	// GF2 is the binary field, used for the ablation study only.
	GF2
)

// String returns the conventional name of the field.
func (f Field) String() string {
	switch f {
	case GF256:
		return "GF(2^8)"
	case GF2:
		return "GF(2)"
	default:
		return "GF(?)"
	}
}
