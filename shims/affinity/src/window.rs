//! Shared file mappings: [`MappedWindow`] (`mmap`/`munmap`) and
//! [`fallocate`] (`posix_fallocate`), so an append-only log can store its
//! bytes with a `memcpy` instead of a `write(2)` per append.

use std::fs::File;
use std::io;

/// A writable `MAP_SHARED` mapping of one byte range of a file. A store
/// through [`MappedWindow::bytes_mut`] lands in the file's page cache, as a
/// `write(2)` at that offset would, without a system call; dropping the
/// window unmaps it.
///
/// [`MappedWindow::map`] refuses a range that runs past the end of the
/// file, but it cannot stop the file shrinking later: a store to a page
/// the file no longer covers kills the process with `SIGBUS`. Whoever owns
/// the window must be the only one to shrink the file, and only after
/// dropping the window. Writes to the same range through another mapping
/// or `write(2)` show through the slice, as with any shared mapping.
#[derive(Debug)]
pub struct MappedWindow {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: a `MappedWindow` owns its mapping as a `Box<[u8]>` owns its
// heap block: `ptr` is never handed out except as a slice borrowed from
// `&mut self`, so moving the owner to another thread moves the only access
// path with it, and `munmap` may run on any thread.
unsafe impl Send for MappedWindow {}

impl MappedWindow {
    /// Maps `len` bytes of `file` starting at `offset`, readable and
    /// writable, shared with the file. `file` must be open for reading and
    /// writing; the mapping outlives the borrow (closing the file does not
    /// unmap it).
    ///
    /// # Errors
    ///
    /// `InvalidInput` when `len` is 0, `offset` is not a multiple of the
    /// page size, or the range runs past the end of the file;
    /// `Unsupported` off 64-bit Linux; otherwise the `mmap` failure.
    pub fn map(file: &File, offset: u64, len: usize) -> io::Result<MappedWindow> {
        let ptr = imp::map(file, offset, len)?;
        Ok(MappedWindow { ptr, len })
    }

    /// The mapped bytes, in file order from the mapped offset.
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        // SAFETY: `map` returned a readable and writable mapping of exactly
        // `len` bytes that stays mapped until `drop`; borrowing `&mut self`
        // makes the slice the only reference into it while it lives.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
    }
}

impl Drop for MappedWindow {
    fn drop(&mut self) {
        imp::unmap(self.ptr, self.len);
    }
}

/// Allocates disk blocks for `len` bytes of `file` from `offset`, growing
/// the file to `offset + len` if it is shorter. Bytes already in the range
/// keep their values; new ones read as zero. Once this returns, a store
/// into the range through a [`MappedWindow`] needs no further allocation,
/// so it cannot fail for lack of space.
///
/// # Errors
///
/// `InvalidInput` when `len` is 0 or the range does not fit `off_t`;
/// `Unsupported` off 64-bit Linux; otherwise the `posix_fallocate` failure
/// (`ENOSPC`, `EBADF` for a file not open for writing, ...).
pub fn fallocate(file: &File, offset: u64, len: u64) -> io::Result<()> {
    imp::fallocate(file, offset, len)
}

fn invalid(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, what)
}

// `off_t` is 64 bits on every 64-bit Linux libc, which the declarations
// below assume.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod imp {
    use std::fs::File;
    use std::io;
    use std::os::fd::AsRawFd;
    use std::os::raw::{c_int, c_long, c_void};

    use super::invalid;

    const PROT_READ: c_int = 0x1;
    const PROT_WRITE: c_int = 0x2;
    const MAP_SHARED: c_int = 0x01;
    const SC_PAGESIZE: c_int = 30;
    const EINTR: c_int = 4;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
        fn posix_fallocate(fd: c_int, offset: i64, len: i64) -> c_int;
        fn sysconf(name: c_int) -> c_long;
    }

    pub fn page_size() -> u64 {
        // SAFETY: `sysconf` takes no pointers and only reads configuration.
        let size = unsafe { sysconf(SC_PAGESIZE) };
        u64::try_from(size).ok().filter(|&s| s > 0).unwrap_or(4096)
    }

    pub fn map(file: &File, offset: u64, len: usize) -> io::Result<*mut u8> {
        if len == 0 {
            return Err(invalid("empty mapping"));
        }
        if !offset.is_multiple_of(page_size()) {
            return Err(invalid("mapping offset is not page-aligned"));
        }
        let end = u64::try_from(len)
            .ok()
            .and_then(|len| offset.checked_add(len))
            .ok_or_else(|| invalid("mapping range overflows"))?;
        if end > file.metadata()?.len() {
            return Err(invalid("mapping runs past the end of the file"));
        }
        let offset = i64::try_from(offset).map_err(|_| invalid("offset exceeds off_t"))?;
        // SAFETY: a null hint lets the kernel place the mapping where it
        // overlaps no existing allocation, so no Rust object is aliased;
        // `len` is non-zero, `offset` is page-aligned and the range lies
        // inside the file (checked above), and the descriptor stays open for
        // the call because `file` is borrowed.
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_SHARED,
                file.as_raw_fd(),
                offset,
            )
        };
        // MAP_FAILED is `(void *) -1`.
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(ptr.cast())
    }

    pub fn unmap(ptr: *mut u8, len: usize) {
        // SAFETY: `ptr` and `len` are exactly what `map` returned for a
        // mapping that is unmapped only here, once, when its owning
        // `MappedWindow` drops; no slice into it outlives that owner. A
        // failure leaves the pages mapped, which leaks but is sound.
        unsafe {
            munmap(ptr.cast(), len);
        }
    }

    pub fn fallocate(file: &File, offset: u64, len: u64) -> io::Result<()> {
        if len == 0 {
            return Err(invalid("empty allocation"));
        }
        let (Ok(off), Ok(n)) = (i64::try_from(offset), i64::try_from(len)) else {
            return Err(invalid("allocation exceeds off_t"));
        };
        if off.checked_add(n).is_none() {
            return Err(invalid("allocation exceeds off_t"));
        }
        loop {
            // SAFETY: `posix_fallocate` takes no pointers; the descriptor
            // stays open for the call because `file` is borrowed.
            let rc = unsafe { posix_fallocate(file.as_raw_fd(), off, n) };
            match rc {
                0 => return Ok(()),
                EINTR => continue,
                // Returns the error number rather than setting errno.
                errno => return Err(io::Error::from_raw_os_error(errno)),
            }
        }
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod imp {
    use std::fs::File;
    use std::io;

    fn unsupported() -> io::Error {
        io::Error::new(
            io::ErrorKind::Unsupported,
            "shared file mappings need 64-bit Linux",
        )
    }

    pub fn map(_file: &File, _offset: u64, _len: usize) -> io::Result<*mut u8> {
        Err(unsupported())
    }

    pub fn unmap(_ptr: *mut u8, _len: usize) {
        // `map` never succeeds here, so there is nothing to unmap.
    }

    pub fn fallocate(_file: &File, _offset: u64, _len: u64) -> io::Result<()> {
        Err(unsupported())
    }
}

#[cfg(all(test, target_os = "linux", target_pointer_width = "64"))]
mod tests {
    use std::fs::OpenOptions;
    use std::path::PathBuf;

    use super::*;

    /// A fresh read-write file, unique per test.
    fn scratch(name: &str) -> (File, PathBuf) {
        let dir = std::env::temp_dir().join("affinity-window-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{}-{name}", std::process::id()));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .unwrap();
        (file, path)
    }

    #[test]
    fn fallocate_grows_the_file_with_zeros() {
        let (file, path) = scratch("grow");
        std::fs::write(&path, b"keep").unwrap();
        fallocate(&file, 0, 8192).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len(), 8192);
        assert_eq!(&bytes[..4], b"keep", "existing bytes survive");
        assert!(bytes[4..].iter().all(|&b| b == 0));
        // A range inside the file leaves its length alone.
        fallocate(&file, 0, 16).unwrap();
        assert_eq!(file.metadata().unwrap().len(), 8192);
        assert!(fallocate(&file, 0, 0).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stores_through_the_window_read_back_from_the_file() {
        let (file, path) = scratch("store");
        let page = imp::page_size();
        fallocate(&file, 0, 2 * page).unwrap();
        let mut window = MappedWindow::map(&file, page, page as usize).unwrap();
        assert_eq!(window.bytes_mut().len(), page as usize);
        window.bytes_mut()[..5].copy_from_slice(b"hello");
        // No msync: `read(2)` sees the same page cache the mapping writes.
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[page as usize..page as usize + 5], b"hello");
        assert!(bytes[..page as usize].iter().all(|&b| b == 0));
        drop(window);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_ranges_are_errors_not_mappings() {
        let (file, path) = scratch("bad");
        let page = imp::page_size();
        fallocate(&file, 0, 2 * page).unwrap();
        let err = MappedWindow::map(&file, 1, 16).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "unaligned offset");
        assert!(MappedWindow::map(&file, 0, 0).is_err(), "empty");
        assert!(
            MappedWindow::map(&file, page, 2 * page as usize).is_err(),
            "past the end of the file"
        );
        assert!(MappedWindow::map(&file, u64::MAX - page + 1, 16).is_err());
        // A read-only descriptor cannot back a writable shared mapping.
        let read_only = File::open(&path).unwrap();
        assert!(MappedWindow::map(&read_only, 0, 16).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn drop_unmaps_so_the_range_maps_again() {
        let (file, path) = scratch("remap");
        let page = imp::page_size();
        fallocate(&file, 0, page).unwrap();
        let mapped = || {
            let maps = std::fs::read_to_string("/proc/self/maps").unwrap();
            maps.lines().any(|l| l.ends_with(path.to_str().unwrap()))
        };
        let mut window = MappedWindow::map(&file, 0, page as usize).unwrap();
        window.bytes_mut()[0] = 7;
        assert!(mapped());
        drop(window);
        assert!(!mapped(), "drop unmapped the range");
        let mut window = MappedWindow::map(&file, 0, page as usize).unwrap();
        assert_eq!(window.bytes_mut()[0], 7, "the store reached the file");
        drop(window);
        // With no window left, shrinking the file is safe.
        file.set_len(0).unwrap();
        assert_eq!(std::fs::read(&path).unwrap().len(), 0);
        std::fs::remove_file(&path).unwrap();
    }
}
