//! A hermetic, dependency-free stand-in for the subset of [libloading]
//! the cjit backend uses: open a shared object, resolve one symbol,
//! release the handle on drop.
//!
//! Unlike upstream, objects are opened `RTLD_NODELETE`: dropping a
//! [`Library`] never unmaps it. A JIT artifact built with `-fopenmp`
//! pulls in libgomp, whose worker threads keep spinning in its code after
//! a parallel region; unloading the last such artifact would unmap that
//! code under them and crash the process.
//!
//! Implemented directly on the platform's `dlopen`/`dlsym`/`dlclose`
//! (declared here as `extern "C"` since no `libc` crate is available in
//! the hermetic build). Unix-only, which matches the cjit backend's own
//! `cc`-based code path.
//!
//! [libloading]: https://docs.rs/libloading

use std::ffi::{c_char, c_int, c_void, CStr, CString};
use std::fmt;
use std::marker::PhantomData;
use std::ops::Deref;
use std::path::Path;

extern "C" {
    fn dlopen(filename: *const c_char, flags: c_int) -> *mut c_void;
    fn dlsym(handle: *mut c_void, symbol: *const c_char) -> *mut c_void;
    fn dlclose(handle: *mut c_void) -> c_int;
    fn dlerror() -> *mut c_char;
}

const RTLD_NOW: c_int = 2;
/// Keep the object mapped after `dlclose` (`<dlfcn.h>`).
#[cfg(target_vendor = "apple")]
const RTLD_NODELETE: c_int = 0x80;
#[cfg(not(target_vendor = "apple"))]
const RTLD_NODELETE: c_int = 0x1000;

/// Error loading a library or resolving a symbol.
#[derive(Debug)]
pub struct Error {
    message: String,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

fn last_dl_error(context: &str) -> Error {
    // SAFETY: dlerror returns either null or a NUL-terminated string owned
    // by the loader; we copy it out immediately.
    let message = unsafe {
        let msg = dlerror();
        if msg.is_null() {
            format!("{context}: unknown dlopen error")
        } else {
            format!("{context}: {}", CStr::from_ptr(msg).to_string_lossy())
        }
    };
    Error { message }
}

/// An open shared library; the handle is released on drop, the mapping
/// stays for the life of the process.
#[derive(Debug)]
pub struct Library {
    handle: *mut c_void,
}

// SAFETY: the dl* handle may be used and dropped from any thread; glibc's
// loader is thread-safe.
unsafe impl Send for Library {}
unsafe impl Sync for Library {}

impl Library {
    /// Open the shared object at `path`.
    ///
    /// # Safety
    /// Loading a library runs its initializers; the caller must trust the
    /// object being loaded (same contract as upstream libloading).
    pub unsafe fn new<P: AsRef<Path>>(path: P) -> Result<Self, Error> {
        let raw = path.as_ref().as_os_str().as_encoded_bytes();
        let cpath = CString::new(raw).map_err(|_| Error {
            message: "library path contains an interior NUL byte".to_string(),
        })?;
        let handle = dlopen(cpath.as_ptr(), RTLD_NOW | RTLD_NODELETE);
        if handle.is_null() {
            Err(last_dl_error("dlopen failed"))
        } else {
            Ok(Library { handle })
        }
    }

    /// Resolve `symbol` (a NUL-terminated byte string, e.g. `b"run\0"`)
    /// to a value of type `T` (typically an `extern "C" fn` pointer).
    ///
    /// # Safety
    /// `T` must match the symbol's actual type; calling through a
    /// mis-typed pointer is undefined behaviour.
    pub unsafe fn get<T: Copy>(&self, symbol: &[u8]) -> Result<Symbol<'_, T>, Error> {
        assert_eq!(
            std::mem::size_of::<T>(),
            std::mem::size_of::<*mut c_void>(),
            "symbol type must be pointer-sized"
        );
        let csym = CStr::from_bytes_with_nul(symbol).map_err(|_| Error {
            message: "symbol name must be NUL-terminated with no interior NULs".to_string(),
        })?;
        let addr = dlsym(self.handle, csym.as_ptr());
        if addr.is_null() {
            return Err(last_dl_error("dlsym failed"));
        }
        // SAFETY: caller guarantees T is a pointer-like type matching the
        // symbol; the assert above checks the size.
        let value = std::mem::transmute_copy::<*mut c_void, T>(&addr);
        Ok(Symbol {
            value,
            _lib: PhantomData,
        })
    }
}

impl Drop for Library {
    fn drop(&mut self) {
        // SAFETY: handle came from a successful dlopen and is closed once;
        // RTLD_NODELETE keeps the object mapped regardless.
        unsafe {
            dlclose(self.handle);
        }
    }
}

/// A symbol resolved from a [`Library`], borrowing the library so it
/// cannot outlive the mapping.
pub struct Symbol<'lib, T> {
    value: T,
    _lib: PhantomData<&'lib Library>,
}

// SAFETY: a resolved code/data address is freely shareable; safety of
// *calling* it is governed by `Library::get`'s contract.
unsafe impl<T: Send> Send for Symbol<'_, T> {}
unsafe impl<T: Sync> Sync for Symbol<'_, T> {}

impl<T> Deref for Symbol<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_library_is_an_error() {
        let err = unsafe { Library::new("/nonexistent/libnope.so") }.unwrap_err();
        assert!(err.to_string().contains("dlopen failed"));
    }

    #[test]
    fn resolves_a_symbol_from_the_loaded_process_libs() {
        // libm is linked into every Rust binary's process image via libstd's
        // dependencies on glibc; open it explicitly to exercise dlsym.
        let lib = match unsafe { Library::new("libm.so.6") } {
            Ok(lib) => lib,
            // Environments without a versioned libm soname: nothing to test.
            Err(_) => return,
        };
        type Cos = unsafe extern "C" fn(f64) -> f64;
        let cos = unsafe { lib.get::<Cos>(b"cos\0") }.expect("cos should resolve");
        let y = unsafe { cos(0.0) };
        assert!((y - 1.0).abs() < 1e-12);
    }
}
