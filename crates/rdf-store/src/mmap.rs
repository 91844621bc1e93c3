//! [`StoreBuf`]: the byte source of the zero-copy load path — a
//! memory-mapped file when the platform allows it, an 8-aligned owned
//! buffer otherwise.
//!
//! The mapping is std-only: a raw `mmap(2)`/`munmap(2)` syscall pair
//! on Linux x86-64 and aarch64 (no libc crate, nothing to install),
//! and a single `read_to_end`-style fallback everywhere else — so
//! every platform and the CI container keep working, just without
//! page-cache sharing. [`StoreBuf::read`] always takes the owned path:
//! the `rdf serve` daemon opens stores that way, because truncating a
//! mapped file under a reader raises SIGBUS in the whole process.
//!
//! Either way the buffer base is at least 8-aligned (pages are
//! page-aligned; the owned fallback stores `u64` words), which is what
//! lets readers serve the 4-byte-wide id columns as `&[u32]` slices
//! straight from the buffer.

use crate::error::StoreError;
use std::fs::File;
use std::io::Read;
use std::path::Path;

/// Whether the raw-syscall mapping path exists on this target.
const MMAP_SUPPORTED: bool = cfg!(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
));

/// An owned byte buffer whose base is 8-aligned: `u64` storage viewed
/// as bytes. `Vec<u8>` guarantees only 1-alignment, which would defeat
/// the zero-copy column casts on the read-fallback path.
#[derive(Debug)]
struct AlignedBuf {
    words: Vec<u64>,
    len: usize,
}

impl AlignedBuf {
    /// Read the entire file into an 8-aligned buffer sized from the
    /// file's metadata. A file of exactly that size fills the buffer
    /// and is then confirmed complete by a small stack-buffer probe, so
    /// it keeps its exact-size allocation; the buffer only grows if the
    /// file turns out longer than its metadata said.
    fn read_file(file: &mut File) -> Result<AlignedBuf, StoreError> {
        let hint = file.metadata().map(|m| m.len() as usize).unwrap_or(0);
        let mut words = vec![0u64; hint.div_ceil(8)];
        let mut len = 0usize;
        loop {
            if len == words.len() * 8 {
                let mut probe = [0u8; 64];
                let n = read_some(file, &mut probe)?;
                if n == 0 {
                    break;
                }
                words.resize(words.len() + words.len().max(1024) / 2, 0);
                bytes_mut(&mut words)[len..len + n]
                    .copy_from_slice(&probe[..n]);
                len += n;
                continue;
            }
            match read_some(file, &mut bytes_mut(&mut words)[len..])? {
                0 => break,
                n => len += n,
            }
        }
        Ok(AlignedBuf { words, len })
    }

    fn as_slice(&self) -> &[u8] {
        // SAFETY: as above — byte view of initialised u64 storage, and
        // `len` never exceeds the allocation (read() wrote that span).
        #[allow(unsafe_code)]
        unsafe {
            std::slice::from_raw_parts(
                self.words.as_ptr().cast::<u8>(),
                self.len,
            )
        }
    }
}

/// The byte view of initialised `u64` storage.
fn bytes_mut(words: &mut [u64]) -> &mut [u8] {
    let len = words.len() * 8;
    // SAFETY: viewing initialised u64 storage as bytes is always valid
    // (alignment only ever decreases), over exactly the same span.
    #[allow(unsafe_code)]
    unsafe {
        std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<u8>(), len)
    }
}

/// One `read`, retried on `Interrupted`.
fn read_some(file: &mut File, buf: &mut [u8]) -> Result<usize, StoreError> {
    loop {
        match file.read(buf) {
            Ok(n) => return Ok(n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(StoreError::Io(e)),
        }
    }
}

/// A read-only mapping created by the raw `mmap` syscall; unmapped on
/// drop.
#[derive(Debug)]
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
struct RawMapping {
    addr: *const u8,
    len: usize,
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    //! The two syscalls, invoked directly so the crate stays std-only.
    use super::RawMapping;
    use std::os::fd::RawFd;

    const PROT_READ: usize = 1;
    const MAP_PRIVATE: usize = 2;

    #[cfg(target_arch = "x86_64")]
    const SYS_MMAP: usize = 9;
    #[cfg(target_arch = "x86_64")]
    const SYS_MUNMAP: usize = 11;
    #[cfg(target_arch = "aarch64")]
    const SYS_MMAP: usize = 222;
    #[cfg(target_arch = "aarch64")]
    const SYS_MUNMAP: usize = 215;

    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    unsafe fn syscall6(
        nr: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> usize {
        let ret: usize;
        // SAFETY: plain syscall instruction with the kernel's x86-64
        // calling convention; rcx/r11 are kernel-clobbered.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") nr => ret,
                in("rdi") a1,
                in("rsi") a2,
                in("rdx") a3,
                in("r10") a4,
                in("r8") a5,
                in("r9") a6,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack)
            );
        }
        ret
    }

    #[cfg(target_arch = "aarch64")]
    #[allow(unsafe_code)]
    unsafe fn syscall6(
        nr: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> usize {
        let ret: usize;
        // SAFETY: plain svc with the kernel's aarch64 convention.
        unsafe {
            std::arch::asm!(
                "svc 0",
                in("x8") nr,
                inlateout("x0") a1 => ret,
                in("x1") a2,
                in("x2") a3,
                in("x3") a4,
                in("x4") a5,
                in("x5") a6,
                options(nostack)
            );
        }
        ret
    }

    /// Map `len` bytes of `fd` read-only/private; `None` on failure
    /// (the caller falls back to reading).
    pub(super) fn map(fd: RawFd, len: usize) -> Option<RawMapping> {
        if len == 0 {
            return None;
        }
        // SAFETY: arguments follow the mmap(2) contract; a failure
        // returns a negative errno which we detect and discard.
        #[allow(unsafe_code)]
        let ret = unsafe {
            syscall6(
                SYS_MMAP,
                0,
                len,
                PROT_READ,
                MAP_PRIVATE,
                fd as usize,
                0,
            )
        };
        if ret > usize::MAX - 4095 {
            return None; // negative errno
        }
        Some(RawMapping {
            addr: ret as *const u8,
            len,
        })
    }

    pub(super) fn unmap(m: &RawMapping) {
        // SAFETY: addr/len came from a successful mmap of exactly this
        // span; double-unmap is prevented by Drop running once.
        #[allow(unsafe_code)]
        unsafe {
            syscall6(SYS_MUNMAP, m.addr as usize, m.len, 0, 0, 0, 0);
        }
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
impl RawMapping {
    fn as_slice(&self) -> &[u8] {
        // SAFETY: the mapping covers `len` readable bytes for the life
        // of self (unmapped only in Drop). The file is opened
        // read-only by us; concurrent external truncation of a store
        // being read is outside the contract of a mapped buffer (it
        // raises SIGBUS, as for any mmap'd reader) — which is why the
        // long-running daemon reads owned buffers (`StoreBuf::read`).
        #[allow(unsafe_code)]
        unsafe {
            std::slice::from_raw_parts(self.addr, self.len)
        }
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
impl Drop for RawMapping {
    fn drop(&mut self) {
        sys::unmap(self);
    }
}

// SAFETY: the mapping is read-only and the raw pointer refers to
// process-global memory not tied to a thread.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
#[allow(unsafe_code)]
unsafe impl Send for RawMapping {}
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
#[allow(unsafe_code)]
unsafe impl Sync for RawMapping {}

#[derive(Debug)]
enum BufImpl {
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    Mapped(RawMapping),
    Owned(AlignedBuf),
}

/// The byte source behind a [`crate::Store`]: a mapped file or an owned
/// 8-aligned buffer. Graph views produced by [`crate::Store::view`]
/// borrow from this, which is what ties their lifetime to the buffer's
/// (see the compile-fail example on [`crate::Store`]).
#[derive(Debug)]
pub struct StoreBuf {
    inner: BufImpl,
}

impl StoreBuf {
    /// Open `path`, mapping it when possible and falling back to one
    /// aligned read otherwise.
    pub fn open(path: impl AsRef<Path>) -> Result<StoreBuf, StoreError> {
        let mut file = File::open(path)?;
        if MMAP_SUPPORTED {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            {
                use std::os::fd::AsRawFd;
                let len = file.metadata()?.len();
                if let Ok(len) = usize::try_from(len) {
                    if let Some(m) = sys::map(file.as_raw_fd(), len) {
                        return Ok(StoreBuf {
                            inner: BufImpl::Mapped(m),
                        });
                    }
                }
            }
        }
        Ok(StoreBuf {
            inner: BufImpl::Owned(AlignedBuf::read_file(&mut file)?),
        })
    }

    /// Read `path` into an owned aligned buffer, never mapping it: a
    /// later truncation of the file cannot touch these bytes.
    pub fn read(path: impl AsRef<Path>) -> Result<StoreBuf, StoreError> {
        let mut file = File::open(path)?;
        Ok(StoreBuf {
            inner: BufImpl::Owned(AlignedBuf::read_file(&mut file)?),
        })
    }

    /// Wrap in-memory bytes, copying them into an 8-aligned buffer.
    pub fn from_bytes(bytes: &[u8]) -> StoreBuf {
        let mut words = vec![0u64; bytes.len().div_ceil(8)];
        bytes_mut(&mut words)[..bytes.len()].copy_from_slice(bytes);
        StoreBuf {
            inner: BufImpl::Owned(AlignedBuf {
                words,
                len: bytes.len(),
            }),
        }
    }

    /// The file image.
    pub fn as_slice(&self) -> &[u8] {
        match &self.inner {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            BufImpl::Mapped(m) => m.as_slice(),
            BufImpl::Owned(b) => b.as_slice(),
        }
    }

    /// Number of bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the bytes come from a memory mapping (false: owned
    /// fallback buffer).
    pub fn is_mapped(&self) -> bool {
        match &self.inner {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            BufImpl::Mapped(_) => true,
            BufImpl::Owned(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("rdf-store-mmap-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn open_serves_file_bytes_aligned() {
        let path = temp_path("basic");
        let data: Vec<u8> = (0..=255u8).cycle().take(4097).collect();
        File::create(&path).unwrap().write_all(&data).unwrap();
        let buf = StoreBuf::open(&path).unwrap();
        assert_eq!(buf.as_slice(), data.as_slice());
        assert_eq!(buf.len(), data.len());
        assert!(!buf.is_empty());
        assert_eq!(buf.as_slice().as_ptr() as usize % 8, 0, "8-aligned base");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fallback_env_matches_mapped_bytes() {
        let path = temp_path("fallback");
        let data = vec![7u8; 12345];
        File::create(&path).unwrap().write_all(&data).unwrap();
        // The owned read must serve identical bytes, also 8-aligned.
        let read = StoreBuf::read(&path).unwrap();
        for owned in [StoreBuf::from_bytes(&data), read] {
            assert!(!owned.is_mapped());
            assert_eq!(owned.as_slice(), data.as_slice());
            assert_eq!(owned.as_slice().as_ptr() as usize % 8, 0);
        }
        let opened = StoreBuf::open(&path).unwrap();
        assert_eq!(opened.as_slice(), data.as_slice());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn owned_read_of_8k_bytes_keeps_exactly_k_words() {
        // Store files are multiples of 8 bytes; reading one must not
        // grow the exact-size buffer just to see EOF.
        let path = temp_path("exact");
        for k in [1usize, 7, 1000, 4096] {
            let data: Vec<u8> = (0..8 * k).map(|i| i as u8).collect();
            File::create(&path).unwrap().write_all(&data).unwrap();
            let buf = StoreBuf::read(&path).unwrap();
            assert_eq!(buf.as_slice(), data.as_slice());
            match &buf.inner {
                BufImpl::Owned(b) => assert_eq!(b.words.len(), k),
                #[allow(unreachable_patterns)]
                _ => panic!("StoreBuf::read never maps"),
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_and_empty_bytes() {
        let path = temp_path("empty");
        File::create(&path).unwrap();
        let buf = StoreBuf::open(&path).unwrap();
        assert!(buf.is_empty());
        assert!(!buf.is_mapped(), "zero-length files are never mapped");
        let b = StoreBuf::from_bytes(&[]);
        assert_eq!(b.len(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            StoreBuf::open(temp_path("missing-definitely")),
            Err(StoreError::Io(_))
        ));
    }
}
