//! On-disk layout: superblock, inodes, extents.
//!
//! ```text
//! block 0                  superblock
//! block 1 .. j             journal region
//! block j .. b             block bitmap (1 bit per block, covers whole device)
//! block b .. i             inode table (16 inodes of 256 B per block)
//! block i ..               data blocks
//! ```

use bypassd_hw::types::{Lba, PAGE_SIZE};

/// An inode number. Inode 1 is the root directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ino(pub u64);

/// Root directory inode.
pub const ROOT_INO: Ino = Ino(1);

/// File system block size (same as the page size, as in ext4-on-4K).
pub const BLOCK_SIZE: u64 = PAGE_SIZE;

/// Bytes per on-disk inode.
pub const INODE_SIZE: u64 = 256;

/// Inodes per block.
pub const INODES_PER_BLOCK: u64 = BLOCK_SIZE / INODE_SIZE;

/// Inline extents stored directly in the inode.
pub const INLINE_EXTENTS: usize = 8;

/// Extent records per overflow block (header is 16 bytes, record 20).
pub const EXTENTS_PER_BLOCK: usize = ((BLOCK_SIZE - 16) / 20) as usize;

/// Superblock magic.
pub const SB_MAGIC: u64 = 0x00BA_55DE_2F40;

/// File type + permission bits (a small subset of POSIX `mode_t`).
pub mod mode {
    /// Regular file flag.
    pub const REG: u16 = 0x8000;
    /// Directory flag.
    pub const DIR: u16 = 0x4000;
    /// Owner read/write/execute.
    pub const RWXU: u16 = 0o700;
    /// Default file mode (0644).
    pub const DEFAULT_FILE: u16 = REG | 0o644;
    /// Default directory mode (0755).
    pub const DEFAULT_DIR: u16 = DIR | 0o755;
}

/// One extent: `len` contiguous FS blocks of the file starting at file
/// block `file_block`, stored at device block `start_block`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// First file block this extent maps.
    pub file_block: u64,
    /// First device block (4 KB units).
    pub start_block: u64,
    /// Length in blocks.
    pub len: u32,
}

impl Extent {
    /// Device LBA (sector) of file block `fb`, which must be inside the
    /// extent.
    ///
    /// # Panics
    /// Panics if `fb` is outside the extent.
    pub fn lba_of(&self, fb: u64) -> Lba {
        assert!(
            fb >= self.file_block && fb < self.file_block + self.len as u64,
            "file block {fb} outside extent"
        );
        Lba::from_block(self.start_block + (fb - self.file_block))
    }

    /// One-past-the-last file block.
    pub fn end(&self) -> u64 {
        self.file_block + self.len as u64
    }

    const BYTES: usize = 20;

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.file_block.to_le_bytes());
        out.extend_from_slice(&self.start_block.to_le_bytes());
        out.extend_from_slice(&self.len.to_le_bytes());
    }

    fn decode(buf: &[u8]) -> Extent {
        Extent {
            file_block: u64::from_le_bytes(buf[0..8].try_into().unwrap()),
            start_block: u64::from_le_bytes(buf[8..16].try_into().unwrap()),
            len: u32::from_le_bytes(buf[16..20].try_into().unwrap()),
        }
    }
}

/// The superblock (block 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Superblock {
    /// Magic number.
    pub magic: u64,
    /// Total device blocks.
    pub blocks: u64,
    /// First journal block.
    pub journal_start: u64,
    /// Journal length in blocks.
    pub journal_blocks: u64,
    /// First bitmap block.
    pub bitmap_start: u64,
    /// Bitmap length in blocks.
    pub bitmap_blocks: u64,
    /// First inode-table block.
    pub itable_start: u64,
    /// Inode-table length in blocks.
    pub itable_blocks: u64,
    /// First data block.
    pub data_start: u64,
    /// Highest inode number handed out.
    pub max_ino: u64,
}

impl Superblock {
    /// Serialises to one block.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(BLOCK_SIZE as usize);
        for v in [
            self.magic,
            self.blocks,
            self.journal_start,
            self.journal_blocks,
            self.bitmap_start,
            self.bitmap_blocks,
            self.itable_start,
            self.itable_blocks,
            self.data_start,
            self.max_ino,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.resize(BLOCK_SIZE as usize, 0);
        out
    }

    /// Parses from a block.
    ///
    /// Returns `None` when the magic does not match (unformatted device).
    pub fn decode(buf: &[u8]) -> Option<Superblock> {
        let word = |i: usize| u64::from_le_bytes(buf[i * 8..(i + 1) * 8].try_into().unwrap());
        if word(0) != SB_MAGIC {
            return None;
        }
        Some(Superblock {
            magic: word(0),
            blocks: word(1),
            journal_start: word(2),
            journal_blocks: word(3),
            bitmap_start: word(4),
            bitmap_blocks: word(5),
            itable_start: word(6),
            itable_blocks: word(7),
            data_start: word(8),
            max_ino: word(9),
        })
    }
}

/// An on-disk inode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiskInode {
    /// Type + permissions.
    pub mode: u16,
    /// Owner.
    pub uid: u32,
    /// Group.
    pub gid: u32,
    /// Link count (0 = free slot).
    pub nlink: u16,
    /// File size in bytes.
    pub size: u64,
    /// Access time (virtual ns).
    pub atime: u64,
    /// Modification time (virtual ns).
    pub mtime: u64,
    /// Change time (virtual ns).
    pub ctime: u64,
    /// Inline extents (first [`INLINE_EXTENTS`]).
    pub inline: Vec<Extent>,
    /// First overflow extent block (0 = none).
    pub overflow_block: u64,
    /// Total extent count (inline + overflow).
    pub extent_count: u32,
}

impl DiskInode {
    /// A fresh inode.
    pub fn new(mode: u16, uid: u32, gid: u32) -> Self {
        DiskInode {
            mode,
            uid,
            gid,
            nlink: 1,
            size: 0,
            atime: 0,
            mtime: 0,
            ctime: 0,
            inline: Vec::new(),
            overflow_block: 0,
            extent_count: 0,
        }
    }

    /// True for directories.
    pub fn is_dir(&self) -> bool {
        self.mode & mode::DIR != 0
    }

    /// Serialises to [`INODE_SIZE`] bytes.
    ///
    /// # Panics
    /// Panics if more than [`INLINE_EXTENTS`] inline extents are present.
    pub fn encode(&self) -> Vec<u8> {
        assert!(
            self.inline.len() <= INLINE_EXTENTS,
            "too many inline extents"
        );
        let mut out = Vec::with_capacity(INODE_SIZE as usize);
        out.extend_from_slice(&self.mode.to_le_bytes());
        out.extend_from_slice(&self.uid.to_le_bytes());
        out.extend_from_slice(&self.gid.to_le_bytes());
        out.extend_from_slice(&self.nlink.to_le_bytes());
        out.extend_from_slice(&self.size.to_le_bytes());
        out.extend_from_slice(&self.atime.to_le_bytes());
        out.extend_from_slice(&self.mtime.to_le_bytes());
        out.extend_from_slice(&self.ctime.to_le_bytes());
        out.extend_from_slice(&self.overflow_block.to_le_bytes());
        out.extend_from_slice(&self.extent_count.to_le_bytes());
        out.extend_from_slice(&(self.inline.len() as u16).to_le_bytes());
        for e in &self.inline {
            e.encode(&mut out);
        }
        assert!(out.len() <= INODE_SIZE as usize, "inode overflow");
        out.resize(INODE_SIZE as usize, 0);
        out
    }

    /// Parses from [`INODE_SIZE`] bytes.
    pub fn decode(buf: &[u8]) -> DiskInode {
        let mode = u16::from_le_bytes(buf[0..2].try_into().unwrap());
        let uid = u32::from_le_bytes(buf[2..6].try_into().unwrap());
        let gid = u32::from_le_bytes(buf[6..10].try_into().unwrap());
        let nlink = u16::from_le_bytes(buf[10..12].try_into().unwrap());
        let size = u64::from_le_bytes(buf[12..20].try_into().unwrap());
        let atime = u64::from_le_bytes(buf[20..28].try_into().unwrap());
        let mtime = u64::from_le_bytes(buf[28..36].try_into().unwrap());
        let ctime = u64::from_le_bytes(buf[36..44].try_into().unwrap());
        let overflow_block = u64::from_le_bytes(buf[44..52].try_into().unwrap());
        let extent_count = u32::from_le_bytes(buf[52..56].try_into().unwrap());
        // Clamp: a torn inode-table write can leave garbage here, and the
        // decoder (used by fsck on post-crash images) must not read past
        // the 256-byte slot. Valid encoders never exceed INLINE_EXTENTS.
        let n_inline =
            (u16::from_le_bytes(buf[56..58].try_into().unwrap()) as usize).min(INLINE_EXTENTS);
        let mut inline = Vec::with_capacity(n_inline);
        let mut pos = 58;
        for _ in 0..n_inline {
            inline.push(Extent::decode(&buf[pos..pos + Extent::BYTES]));
            pos += Extent::BYTES;
        }
        DiskInode {
            mode,
            uid,
            gid,
            nlink,
            size,
            atime,
            mtime,
            ctime,
            inline,
            overflow_block,
            extent_count,
        }
    }
}

/// Encodes an overflow extent block: `count`, `next`, then records.
///
/// # Panics
/// Panics if more than [`EXTENTS_PER_BLOCK`] extents are supplied.
pub fn encode_extent_block(extents: &[Extent], next: u64) -> Vec<u8> {
    assert!(extents.len() <= EXTENTS_PER_BLOCK, "extent block overflow");
    let mut out = Vec::with_capacity(BLOCK_SIZE as usize);
    out.extend_from_slice(&(extents.len() as u64).to_le_bytes());
    out.extend_from_slice(&next.to_le_bytes());
    for e in extents {
        e.encode(&mut out);
    }
    out.resize(BLOCK_SIZE as usize, 0);
    out
}

/// Decodes an overflow extent block; returns `(extents, next_block)`.
pub fn decode_extent_block(buf: &[u8]) -> (Vec<Extent>, u64) {
    // The on-disk count is untrusted: a torn or hostile block may claim
    // anything, so it never sizes an allocation beyond one block's worth.
    let count = u64::from_le_bytes(buf[0..8].try_into().unwrap());
    let count = count.min(EXTENTS_PER_BLOCK as u64) as usize;
    let next = u64::from_le_bytes(buf[8..16].try_into().unwrap());
    let mut extents = Vec::with_capacity(count);
    let mut pos = 16;
    for _ in 0..count {
        extents.push(Extent::decode(&buf[pos..pos + Extent::BYTES]));
        pos += Extent::BYTES;
    }
    (extents, next)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extent_block_with_hostile_count_decodes_one_block_at_most() {
        let mut block = encode_extent_block(&[], 7);
        block[0..8].copy_from_slice(&u64::MAX.to_le_bytes());
        let (extents, next) = decode_extent_block(&block);
        assert!(extents.len() <= EXTENTS_PER_BLOCK);
        assert_eq!(next, 7);
    }

    #[test]
    fn superblock_roundtrip() {
        let sb = Superblock {
            magic: SB_MAGIC,
            blocks: 1 << 24,
            journal_start: 1,
            journal_blocks: 1024,
            bitmap_start: 1025,
            bitmap_blocks: 512,
            itable_start: 1537,
            itable_blocks: 4096,
            data_start: 5633,
            max_ino: 42,
        };
        let enc = sb.encode();
        assert_eq!(enc.len(), BLOCK_SIZE as usize);
        assert_eq!(Superblock::decode(&enc), Some(sb));
    }

    #[test]
    fn superblock_rejects_bad_magic() {
        let buf = vec![0u8; BLOCK_SIZE as usize];
        assert_eq!(Superblock::decode(&buf), None);
    }

    #[test]
    fn inode_roundtrip_with_extents() {
        let mut ino = DiskInode::new(mode::DEFAULT_FILE, 1000, 100);
        ino.size = 123_456;
        ino.mtime = 99;
        ino.extent_count = 2;
        ino.inline = vec![
            Extent {
                file_block: 0,
                start_block: 500,
                len: 16,
            },
            Extent {
                file_block: 16,
                start_block: 900,
                len: 14,
            },
        ];
        ino.overflow_block = 777;
        let enc = ino.encode();
        assert_eq!(enc.len(), INODE_SIZE as usize);
        assert_eq!(DiskInode::decode(&enc), ino);
    }

    #[test]
    fn inode_full_inline_fits() {
        let mut ino = DiskInode::new(mode::DEFAULT_FILE, 0, 0);
        for i in 0..INLINE_EXTENTS {
            ino.inline.push(Extent {
                file_block: i as u64 * 10,
                start_block: 1000 + i as u64,
                len: 10,
            });
        }
        let enc = ino.encode();
        assert_eq!(DiskInode::decode(&enc).inline.len(), INLINE_EXTENTS);
    }

    #[test]
    fn extent_block_roundtrip() {
        let extents: Vec<Extent> = (0..EXTENTS_PER_BLOCK)
            .map(|i| Extent {
                file_block: i as u64,
                start_block: 10_000 + i as u64,
                len: 1,
            })
            .collect();
        let enc = encode_extent_block(&extents, 555);
        let (dec, next) = decode_extent_block(&enc);
        assert_eq!(dec, extents);
        assert_eq!(next, 555);
    }

    #[test]
    fn extent_lba_of() {
        let e = Extent {
            file_block: 10,
            start_block: 100,
            len: 5,
        };
        assert_eq!(e.lba_of(10), Lba::from_block(100));
        assert_eq!(e.lba_of(14), Lba::from_block(104));
        assert_eq!(e.end(), 15);
    }

    #[test]
    #[should_panic(expected = "outside extent")]
    fn extent_lba_of_out_of_range() {
        let e = Extent {
            file_block: 10,
            start_block: 100,
            len: 5,
        };
        e.lba_of(15);
    }

    #[test]
    fn mode_helpers() {
        let d = DiskInode::new(mode::DEFAULT_DIR, 0, 0);
        let f = DiskInode::new(mode::DEFAULT_FILE, 0, 0);
        assert!(d.is_dir());
        assert!(!f.is_dir());
    }
}
