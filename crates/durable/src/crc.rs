//! CRC-32 (IEEE 802.3, polynomial `0xEDB88320`), slice-by-8. Every
//! WAL record carries one so a flipped bit anywhere in a payload is
//! detected on replay. The checksum is on the append hot path (cached
//! response bodies run to kilobytes per record), so it uses eight lookup
//! tables to process 8 bytes per step instead of one.

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    // tables[k][b] = CRC of byte b followed by k zero bytes, so eight
    // table hits cover one 64-bit chunk.
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// The running state [`update`] starts from; the CRC is its complement.
pub(crate) const INIT: u32 = 0xFFFF_FFFF;

/// Fold `bytes` into a running CRC state.
pub(crate) fn update(mut crc: u32, mut bytes: &[u8]) -> u32 {
    while let Some((chunk, rest)) = bytes.split_first_chunk::<8>() {
        let low = u32::from_le_bytes(chunk[..4].try_into().unwrap()) ^ crc;
        crc = TABLES[7][(low & 0xFF) as usize]
            ^ TABLES[6][((low >> 8) & 0xFF) as usize]
            ^ TABLES[5][((low >> 16) & 0xFF) as usize]
            ^ TABLES[4][(low >> 24) as usize]
            ^ TABLES[3][chunk[4] as usize]
            ^ TABLES[2][chunk[5] as usize]
            ^ TABLES[1][chunk[6] as usize]
            ^ TABLES[0][chunk[7] as usize];
        bytes = rest;
    }
    for &b in bytes {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// CRC-32 over a sequence of byte slices (concatenation semantics).
pub(crate) fn crc32(parts: &[&[u8]]) -> u32 {
    let mut crc = INIT;
    for part in parts {
        crc = update(crc, part);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_vector() {
        // The canonical IEEE check value for "123456789".
        assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
    }

    #[test]
    fn concatenation_semantics() {
        assert_eq!(crc32(&[b"hello ", b"world"]), crc32(&[b"hello world"]));
        assert_ne!(crc32(&[b"hello"]), crc32(&[b"hellp"]));
        assert_eq!(crc32(&[]), 0);
    }

    #[test]
    fn slice_by_8_matches_bytewise_at_every_alignment() {
        let bytewise = |bytes: &[u8]| {
            let mut crc = 0xFFFF_FFFFu32;
            for &b in bytes {
                crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
            }
            !crc
        };
        let data: Vec<u8> = (0u32..1024).map(|i| (i.wrapping_mul(31) >> 3) as u8).collect();
        for len in (0..64).chain([255, 256, 257, 1023, 1024]) {
            assert_eq!(crc32(&[&data[..len]]), bytewise(&data[..len]), "len {len}");
        }
    }
}
