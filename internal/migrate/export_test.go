package migrate

import "crypto/sha256"

// Digest pins the image: sha256 over its canonical encoding.
func (im *Image) Digest() ([sha256.Size]byte, error) {
	b, err := im.Encode()
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	return sha256.Sum256(b), nil
}
