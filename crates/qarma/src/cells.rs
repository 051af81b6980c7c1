//! Nibble-cell state representation shared by the QARMA round functions.
//!
//! QARMA-64 operates on a 4×4 matrix of 4-bit cells. Cell 0 holds the most
//! significant nibble of the 64-bit word, cell 15 the least significant, and
//! the matrix is indexed row-major: cell `4*row + col`.

/// The 4×4 nibble state of QARMA-64.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Cells(pub [u8; 16]);

impl Cells {
    /// Unpacks a 64-bit word into 16 nibbles, most significant first.
    pub fn from_u64(x: u64) -> Self {
        let mut cells = [0u8; 16];
        for (i, cell) in cells.iter_mut().enumerate() {
            *cell = ((x >> (4 * (15 - i))) & 0xF) as u8;
        }
        Cells(cells)
    }

    /// Packs the 16 nibbles back into a 64-bit word.
    pub fn to_u64(self) -> u64 {
        self.0
            .iter()
            .enumerate()
            .fold(0u64, |acc, (i, &c)| acc | (u64::from(c) << (4 * (15 - i))))
    }

    /// Applies a cell permutation: `out[i] = self[perm[i]]`.
    pub fn permute(self, perm: &[usize; 16]) -> Self {
        let mut out = [0u8; 16];
        for (i, &p) in perm.iter().enumerate() {
            out[i] = self.0[p];
        }
        Cells(out)
    }

    /// Applies the inverse of a cell permutation: `out[perm[i]] = self[i]`.
    pub fn permute_inv(self, perm: &[usize; 16]) -> Self {
        let mut out = [0u8; 16];
        for (i, &p) in perm.iter().enumerate() {
            out[p] = self.0[i];
        }
        Cells(out)
    }

    /// Applies a nibble substitution box to every cell.
    pub fn sub_cells(self, sbox: &[u8; 16]) -> Self {
        let mut out = self.0;
        for cell in &mut out {
            *cell = sbox[usize::from(*cell)];
        }
        Cells(out)
    }

    /// Multiplies the state by the involutory circulant matrix `m`.
    ///
    /// Matrix entries are rotation amounts in the ring of 4-bit nibble
    /// rotations; an entry of 0 contributes nothing (the matrix diagonal).
    pub fn mix_columns(self, m: &[u8; 16]) -> Self {
        let mut out = [0u8; 16];
        for row in 0..4 {
            for col in 0..4 {
                let mut acc = 0u8;
                for j in 0..4 {
                    let rot = m[4 * row + j];
                    if rot != 0 {
                        acc ^= rotl4(self.0[4 * j + col], rot);
                    }
                }
                out[4 * row + col] = acc;
            }
        }
        Cells(out)
    }

    /// XORs a 64-bit round tweakey into the state, nibble-wise.
    pub fn add_round_tweakey(self, tk: u64) -> Self {
        let mut out = self.0;
        for (i, cell) in out.iter_mut().enumerate() {
            *cell ^= ((tk >> (4 * (15 - i))) & 0xF) as u8;
        }
        Cells(out)
    }
}

/// Rotates a 4-bit nibble left by `r` bits (`r` in `1..=3`).
fn rotl4(x: u8, r: u8) -> u8 {
    debug_assert!((1..=3).contains(&r));
    ((x << r) | (x >> (4 - r))) & 0xF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_u64() {
        for &x in &[0u64, u64::MAX, 0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210] {
            assert_eq!(Cells::from_u64(x).to_u64(), x);
        }
    }

    #[test]
    fn cell_zero_is_most_significant_nibble() {
        let c = Cells::from_u64(0xA000_0000_0000_0003);
        assert_eq!(c.0[0], 0xA);
        assert_eq!(c.0[15], 0x3);
    }

    #[test]
    fn permute_then_inverse_is_identity() {
        let perm = [0usize, 11, 6, 13, 10, 1, 12, 7, 5, 14, 3, 8, 15, 4, 9, 2];
        let c = Cells::from_u64(0x0123_4567_89ab_cdef);
        assert_eq!(c.permute(&perm).permute_inv(&perm), c);
    }

    #[test]
    fn rotl4_cases() {
        assert_eq!(rotl4(0b0001, 1), 0b0010);
        assert_eq!(rotl4(0b1000, 1), 0b0001);
        assert_eq!(rotl4(0b1001, 2), 0b0110);
        assert_eq!(rotl4(0b1111, 3), 0b1111);
    }

    #[test]
    fn mix_columns_is_involutory() {
        // The QARMA-64 matrix M = circ(0, ρ, ρ², ρ) is an involution.
        let m = [0u8, 1, 2, 1, 1, 0, 1, 2, 2, 1, 0, 1, 1, 2, 1, 0];
        let c = Cells::from_u64(0xdead_beef_cafe_f00d);
        assert_eq!(c.mix_columns(&m).mix_columns(&m), c);
    }

    #[test]
    fn add_round_tweakey_is_self_inverse() {
        let c = Cells::from_u64(0x1111_2222_3333_4444);
        let tk = 0x9999_8888_7777_6666;
        assert_eq!(c.add_round_tweakey(tk).add_round_tweakey(tk), c);
    }
}
