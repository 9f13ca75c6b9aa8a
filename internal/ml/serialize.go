package ml

import (
	"errors"
	"fmt"

	"fairindex/internal/binenc"
)

// Serialization errors.
var (
	// ErrSerialize reports a model that cannot be exported (unknown
	// family or not fitted).
	ErrSerialize = errors.New("ml: cannot serialize model")
	// ErrDeserialize reports corrupt or unsupported model bytes.
	ErrDeserialize = errors.New("ml: cannot deserialize model")
)

// Model family tags used in the binary encoding. Tags are part of the
// on-disk format: never renumber, only append.
const (
	tagLogReg     = 1
	tagTree       = 2
	tagGaussianNB = 3
	tagCalibrated = 4
	tagPlatt      = 5
	tagIsotonic   = 6
)

// MarshalClassifier exports a fitted classifier's parameters in the
// library's compact binary encoding. Floats keep their exact bits, so
// an unmarshaled model reproduces identical scores. Only fitted
// models of the built-in families can be exported.
func MarshalClassifier(c Classifier) ([]byte, error) {
	return appendClassifier(nil, c)
}

// appendClassifier appends the tagged encoding of c.
func appendClassifier(b []byte, c Classifier) ([]byte, error) {
	switch m := c.(type) {
	case *LogReg:
		if !m.fitted {
			return nil, fmt.Errorf("%w: %s: %v", ErrSerialize, m.Name(), ErrNotFitted)
		}
		b = binenc.AppendUvarint(b, tagLogReg)
		b = binenc.AppendFloat64(b, m.LearningRate)
		b = binenc.AppendVarint(b, int64(m.Epochs))
		b = binenc.AppendFloat64(b, m.L2)
		b = binenc.AppendFloat64s(b, m.std.Mean)
		b = binenc.AppendFloat64s(b, m.std.Scale)
		b = binenc.AppendFloat64s(b, m.weights)
		b = binenc.AppendFloat64(b, m.bias)
		return b, nil

	case *DecisionTree:
		if !m.fitted {
			return nil, fmt.Errorf("%w: %s: %v", ErrSerialize, m.Name(), ErrNotFitted)
		}
		b = binenc.AppendUvarint(b, tagTree)
		b = binenc.AppendVarint(b, int64(m.MaxDepth))
		b = binenc.AppendFloat64(b, m.MinLeafWeight)
		b = binenc.AppendVarint(b, int64(m.nCols))
		b = binenc.AppendFloat64s(b, m.imp)
		return appendTreeNode(b, m.root), nil

	case *GaussianNB:
		if !m.fitted {
			return nil, fmt.Errorf("%w: %s: %v", ErrSerialize, m.Name(), ErrNotFitted)
		}
		b = binenc.AppendUvarint(b, tagGaussianNB)
		b = binenc.AppendFloat64(b, m.VarSmoothing)
		b = binenc.AppendVarint(b, int64(m.nCols))
		b = binenc.AppendFloat64(b, m.prior[0])
		b = binenc.AppendFloat64(b, m.prior[1])
		for c := 0; c < 2; c++ {
			b = binenc.AppendFloat64s(b, m.mean[c])
			b = binenc.AppendFloat64s(b, m.vari[c])
		}
		return b, nil

	case *CalibratedClassifier:
		if !m.fitted {
			return nil, fmt.Errorf("%w: %s: %v", ErrSerialize, m.Name(), ErrNotFitted)
		}
		b = binenc.AppendUvarint(b, tagCalibrated)
		inner, err := appendClassifier(nil, m.Base)
		if err != nil {
			return nil, err
		}
		b = binenc.AppendBytes(b, inner)
		return appendPlatt(b, m.platt)
	}
	return nil, fmt.Errorf("%w: unsupported classifier %T", ErrSerialize, c)
}

// appendTreeNode appends a preorder encoding of the subtree: a leaf
// flag, then either the leaf probability or the split and children.
func appendTreeNode(b []byte, n *treeNode) []byte {
	if n.left == nil {
		b = binenc.AppendBool(b, true)
		return binenc.AppendFloat64(b, n.prob)
	}
	b = binenc.AppendBool(b, false)
	b = binenc.AppendVarint(b, int64(n.col))
	b = binenc.AppendFloat64(b, n.threshold)
	b = appendTreeNode(b, n.left)
	return appendTreeNode(b, n.right)
}

// appendPlatt appends the tagged encoding of a fitted Platt scaler.
func appendPlatt(b []byte, p *Platt) ([]byte, error) {
	if !p.fitted {
		return nil, fmt.Errorf("%w: platt: %v", ErrSerialize, ErrNotFitted)
	}
	b = binenc.AppendUvarint(b, tagPlatt)
	b = binenc.AppendVarint(b, int64(p.MaxIter))
	b = binenc.AppendFloat64(b, p.LearningRate)
	b = binenc.AppendFloat64(b, p.a)
	b = binenc.AppendFloat64(b, p.b)
	return b, nil
}

// UnmarshalClassifier reconstructs a classifier exported by
// MarshalClassifier. The returned model is fitted and ready for
// PredictProba. canonical reports whether data is exactly what
// MarshalClassifier writes for that model: no padded varint, no bool
// byte other than 0 or 1, no trailing bytes (see binenc.Reader).
func UnmarshalClassifier(data []byte) (c Classifier, canonical bool, err error) {
	r := binenc.NewReader(data)
	c, nested, err := readClassifier(r)
	if err != nil {
		return nil, false, err
	}
	if err := r.Err(); err != nil {
		return nil, false, fmt.Errorf("%w: %v", ErrDeserialize, err)
	}
	return c, nested && r.Canonical() && r.Len() == 0, nil
}

// readClassifier decodes one tagged classifier from r. nested reports
// whether the base model blob a calibrated wrapper carries is
// canonical (true for every other family).
func readClassifier(r *binenc.Reader) (c Classifier, nested bool, err error) {
	tag := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, false, fmt.Errorf("%w: %v", ErrDeserialize, err)
	}
	switch tag {
	case tagLogReg:
		m := NewLogReg()
		m.LearningRate = r.Float64()
		m.Epochs = r.Int()
		m.L2 = r.Float64()
		m.std = &Standardizer{Mean: r.Float64s(), Scale: r.Float64s()}
		m.weights = r.Float64s()
		m.bias = r.Float64()
		if err := r.Err(); err != nil {
			return nil, false, fmt.Errorf("%w: logreg: %v", ErrDeserialize, err)
		}
		if len(m.std.Mean) != len(m.weights) || len(m.std.Scale) != len(m.weights) || len(m.weights) == 0 {
			return nil, false, fmt.Errorf("%w: logreg: inconsistent parameter shapes", ErrDeserialize)
		}
		m.fitted = true
		return m, true, nil

	case tagTree:
		m := NewDecisionTree()
		m.MaxDepth = r.Int()
		m.MinLeafWeight = r.Float64()
		m.nCols = r.Int()
		m.imp = r.Float64s()
		root, err := readTreeNode(r, 0)
		if err != nil {
			return nil, false, err
		}
		if err := r.Err(); err != nil {
			return nil, false, fmt.Errorf("%w: dtree: %v", ErrDeserialize, err)
		}
		if m.nCols <= 0 {
			return nil, false, fmt.Errorf("%w: dtree: non-positive column count", ErrDeserialize)
		}
		m.root = root
		m.fitted = true
		return m, true, nil

	case tagGaussianNB:
		m := NewGaussianNB()
		m.VarSmoothing = r.Float64()
		m.nCols = r.Int()
		m.prior[0] = r.Float64()
		m.prior[1] = r.Float64()
		for c := 0; c < 2; c++ {
			m.mean[c] = r.Float64s()
			m.vari[c] = r.Float64s()
		}
		if err := r.Err(); err != nil {
			return nil, false, fmt.Errorf("%w: naivebayes: %v", ErrDeserialize, err)
		}
		for c := 0; c < 2; c++ {
			if len(m.mean[c]) != m.nCols || len(m.vari[c]) != m.nCols {
				return nil, false, fmt.Errorf("%w: naivebayes: inconsistent parameter shapes", ErrDeserialize)
			}
		}
		m.fitted = true
		return m, true, nil

	case tagCalibrated:
		inner := r.Bytes()
		if err := r.Err(); err != nil {
			return nil, false, fmt.Errorf("%w: calibrated: %v", ErrDeserialize, err)
		}
		base, nested, err := UnmarshalClassifier(inner)
		if err != nil {
			return nil, false, err
		}
		cal, err := readCalibrator(r)
		if err != nil {
			return nil, false, err
		}
		platt, ok := cal.(*Platt)
		if !ok {
			return nil, false, fmt.Errorf("%w: calibrated: wrapper must be platt, got %T", ErrDeserialize, cal)
		}
		m := NewCalibrated(base)
		m.platt = platt
		m.fitted = true
		return m, nested, nil
	}
	return nil, false, fmt.Errorf("%w: unknown model tag %d", ErrDeserialize, tag)
}

// maxTreeDecodeDepth bounds recursion while decoding tree bytes so
// corrupt input cannot overflow the stack.
const maxTreeDecodeDepth = 64

// readTreeNode decodes one preorder-encoded subtree.
func readTreeNode(r *binenc.Reader, depth int) (*treeNode, error) {
	if depth > maxTreeDecodeDepth {
		return nil, fmt.Errorf("%w: dtree deeper than %d", ErrDeserialize, maxTreeDecodeDepth)
	}
	if r.Bool() {
		return &treeNode{prob: r.Float64()}, nil
	}
	n := &treeNode{col: r.Int(), threshold: r.Float64()}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: dtree node: %v", ErrDeserialize, err)
	}
	var err error
	if n.left, err = readTreeNode(r, depth+1); err != nil {
		return nil, err
	}
	if n.right, err = readTreeNode(r, depth+1); err != nil {
		return nil, err
	}
	return n, nil
}

// MarshalCalibrator exports a fitted score calibrator (Platt or
// isotonic) in the same tagged encoding as MarshalClassifier.
func MarshalCalibrator(c ScoreCalibrator) ([]byte, error) {
	switch cal := c.(type) {
	case *Platt:
		return appendPlatt(nil, cal)
	case *Isotonic:
		if !cal.fitted {
			return nil, fmt.Errorf("%w: isotonic: %v", ErrSerialize, ErrNotFitted)
		}
		b := binenc.AppendUvarint(nil, tagIsotonic)
		b = binenc.AppendFloat64s(b, cal.breakpoints)
		b = binenc.AppendFloat64s(b, cal.values)
		return b, nil
	}
	return nil, fmt.Errorf("%w: unsupported calibrator %T", ErrSerialize, c)
}

// UnmarshalCalibrator reconstructs a calibrator exported by
// MarshalCalibrator. canonical reports, as for UnmarshalClassifier,
// whether data is exactly what MarshalCalibrator writes for it.
func UnmarshalCalibrator(data []byte) (c ScoreCalibrator, canonical bool, err error) {
	r := binenc.NewReader(data)
	c, err = readCalibrator(r)
	if err != nil {
		return nil, false, err
	}
	if err := r.Err(); err != nil {
		return nil, false, fmt.Errorf("%w: %v", ErrDeserialize, err)
	}
	return c, r.Canonical() && r.Len() == 0, nil
}

// readCalibrator decodes one tagged calibrator from r.
func readCalibrator(r *binenc.Reader) (ScoreCalibrator, error) {
	tag := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDeserialize, err)
	}
	switch tag {
	case tagPlatt:
		p := NewPlatt()
		p.MaxIter = r.Int()
		p.LearningRate = r.Float64()
		p.a = r.Float64()
		p.b = r.Float64()
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("%w: platt: %v", ErrDeserialize, err)
		}
		p.fitted = true
		return p, nil
	case tagIsotonic:
		iso := NewIsotonic()
		iso.breakpoints = r.Float64s()
		iso.values = r.Float64s()
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("%w: isotonic: %v", ErrDeserialize, err)
		}
		if len(iso.breakpoints) == 0 || len(iso.breakpoints) != len(iso.values) {
			return nil, fmt.Errorf("%w: isotonic: inconsistent step function", ErrDeserialize)
		}
		iso.fitted = true
		return iso, nil
	}
	return nil, fmt.Errorf("%w: unknown calibrator tag %d", ErrDeserialize, tag)
}
