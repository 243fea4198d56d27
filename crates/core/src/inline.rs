//! Short inline containers for what a recorded launch names and touches.
//!
//! A kernel launch carries a label and two buffer lists, a buffer a name,
//! and nearly all of them are a few bytes or a few entries long. The two
//! types here keep that much in place and go to the heap only past it, so
//! recording a program allocates per tiling rather than per launch:
//!
//! * [`InlineStr`] — a string of up to [`INLINE_STR_CAP`] bytes in place
//!   (`"gemm(12,13,11)"`, `"A64_63"`); longer ones, such as fuzz-genome
//!   labels, take one heap block;
//! * [`BufList`] — up to [`INLINE_BUFS`] buffer ids in place; longer lists
//!   (Kmeans' reduce reads one partial per tile) take one heap block.
//!
//! Both are 24 bytes, the size of the `String` and `Vec` they replace.
//!
//! The native executor's launch path keeps its scratch lists — the buffers
//! to lock, in id order, the lock guards, the read and write views its
//! kernel body borrows — in an `InlineVec` of `INLINE_ACCESSES` entries for
//! the same reason: a launch of up to that many buffers allocates nothing.

use std::fmt::{self, Write as _};
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

use crate::types::BufId;

/// Bytes an [`InlineStr`] holds without allocating.
pub const INLINE_STR_CAP: usize = 22;

/// A string that keeps up to `INLINE_STR_CAP` (22) bytes in place and spills
/// longer ones to the heap. It derefs to `str`, and `Display`, `Debug`,
/// `Eq` and `Hash` are those of that `str`.
///
/// ```
/// use hstreams::InlineStr;
/// let (i, j) = (3, 14);
/// let label = InlineStr::from(format_args!("gemm({i},{j})"));
/// assert_eq!(label, "gemm(3,14)");
/// assert_eq!(label.to_string(), "gemm(3,14)");
/// ```
#[derive(Clone)]
pub struct InlineStr(StrRepr);

#[derive(Clone)]
enum StrRepr {
    Inline {
        len: u8,
        bytes: [u8; INLINE_STR_CAP],
    },
    Heap(Box<str>),
}

impl InlineStr {
    /// The string.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            StrRepr::Inline { len, bytes } => std::str::from_utf8(&bytes[..usize::from(*len)])
                .expect("inline bytes are copied from a whole str"),
            StrRepr::Heap(s) => s,
        }
    }

    /// Whether the string lives on the heap (it is longer than
    /// [`INLINE_STR_CAP`] bytes).
    #[cfg(test)]
    fn spilled(&self) -> bool {
        matches!(self.0, StrRepr::Heap(_))
    }
}

impl From<&str> for InlineStr {
    fn from(s: &str) -> Self {
        if s.len() > INLINE_STR_CAP {
            return InlineStr(StrRepr::Heap(s.into()));
        }
        let mut bytes = [0; INLINE_STR_CAP];
        bytes[..s.len()].copy_from_slice(s.as_bytes());
        InlineStr(StrRepr::Inline {
            len: s.len() as u8,
            bytes,
        })
    }
}

impl From<String> for InlineStr {
    fn from(s: String) -> Self {
        if s.len() > INLINE_STR_CAP {
            InlineStr(StrRepr::Heap(s.into_boxed_str()))
        } else {
            InlineStr::from(s.as_str())
        }
    }
}

impl From<fmt::Arguments<'_>> for InlineStr {
    /// Format in place; only output longer than `INLINE_STR_CAP` (22) bytes
    /// allocates.
    fn from(args: fmt::Arguments<'_>) -> Self {
        if let Some(s) = args.as_str() {
            return InlineStr::from(s);
        }
        let mut out = Formatted {
            len: 0,
            bytes: [0; INLINE_STR_CAP],
            spill: None,
        };
        out.write_fmt(args)
            .expect("formatting into memory does not fail");
        match out.spill {
            Some(s) => InlineStr::from(s),
            None => InlineStr(StrRepr::Inline {
                len: out.len as u8,
                bytes: out.bytes,
            }),
        }
    }
}

/// The sink [`InlineStr::from`] formats into: inline bytes until they
/// overflow, a `String` after.
struct Formatted {
    len: usize,
    bytes: [u8; INLINE_STR_CAP],
    spill: Option<String>,
}

impl fmt::Write for Formatted {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        if let Some(spill) = &mut self.spill {
            spill.push_str(s);
        } else if self.len + s.len() <= INLINE_STR_CAP {
            self.bytes[self.len..self.len + s.len()].copy_from_slice(s.as_bytes());
            self.len += s.len();
        } else {
            let head = std::str::from_utf8(&self.bytes[..self.len])
                .expect("inline bytes are copied from whole strs");
            let mut spill = String::with_capacity(self.len + s.len());
            spill.push_str(head);
            spill.push_str(s);
            self.spill = Some(spill);
        }
        Ok(())
    }
}

impl Deref for InlineStr {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Display for InlineStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for InlineStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl PartialEq for InlineStr {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for InlineStr {}

impl Hash for InlineStr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl PartialEq<str> for InlineStr {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for InlineStr {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for InlineStr {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other
    }
}

/// Buffer ids a [`BufList`] holds without allocating.
pub const INLINE_BUFS: usize = 2;

/// A fixed list of buffer ids that keeps up to `INLINE_BUFS` (2) in place
/// and spills longer lists to the heap. It derefs to `[BufId]`, in the
/// order it was collected.
#[derive(Clone)]
pub struct BufList(ListRepr);

#[derive(Clone)]
enum ListRepr {
    Inline { len: u8, ids: [BufId; INLINE_BUFS] },
    Heap(Box<[BufId]>),
}

impl BufList {
    /// Whether the list lives on the heap (it is longer than
    /// [`INLINE_BUFS`]).
    #[cfg(test)]
    fn spilled(&self) -> bool {
        matches!(self.0, ListRepr::Heap(_))
    }
}

impl Default for BufList {
    fn default() -> Self {
        BufList(ListRepr::Inline {
            len: 0,
            ids: [BufId(0); INLINE_BUFS],
        })
    }
}

impl FromIterator<BufId> for BufList {
    fn from_iter<I: IntoIterator<Item = BufId>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        let mut ids = [BufId(0); INLINE_BUFS];
        for len in 0..INLINE_BUFS {
            match iter.next() {
                Some(b) => ids[len] = b,
                None => {
                    return BufList(ListRepr::Inline {
                        len: len as u8,
                        ids,
                    })
                }
            }
        }
        let Some(next) = iter.next() else {
            return BufList(ListRepr::Inline {
                len: INLINE_BUFS as u8,
                ids,
            });
        };
        let mut all = Vec::with_capacity(INLINE_BUFS + 1 + iter.size_hint().0);
        all.extend(ids);
        all.push(next);
        all.extend(iter);
        BufList(ListRepr::Heap(all.into_boxed_slice()))
    }
}

impl Deref for BufList {
    type Target = [BufId];

    fn deref(&self) -> &[BufId] {
        match &self.0 {
            ListRepr::Inline { len, ids } => &ids[..usize::from(*len)],
            ListRepr::Heap(ids) => ids,
        }
    }
}

impl DerefMut for BufList {
    fn deref_mut(&mut self) -> &mut [BufId] {
        match &mut self.0 {
            ListRepr::Inline { len, ids } => &mut ids[..usize::from(*len)],
            ListRepr::Heap(ids) => ids,
        }
    }
}

impl<'a> IntoIterator for &'a BufList {
    type Item = &'a BufId;
    type IntoIter = std::slice::Iter<'a, BufId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Debug for BufList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Entries an `InlineVec` of launch scratch holds without allocating:
/// a kernel's declared buffers, reads and writes together.
pub(crate) const INLINE_ACCESSES: usize = 4;

/// A list that keeps up to `N` items in place and moves them all to one
/// heap block when one more is pushed. It derefs to `[T]`, in push order.
/// The free slots hold `T::default()` — an `Option` of anything will do.
pub(crate) struct InlineVec<T, const N: usize>(VecRepr<T, N>);

enum VecRepr<T, const N: usize> {
    Inline { len: usize, items: [T; N] },
    Heap(Vec<T>),
}

impl<T: Default, const N: usize> InlineVec<T, N> {
    pub(crate) fn new() -> Self {
        InlineVec(VecRepr::Inline {
            len: 0,
            items: std::array::from_fn(|_| T::default()),
        })
    }

    pub(crate) fn push(&mut self, item: T) {
        let spilled = match &mut self.0 {
            VecRepr::Inline { len, items } if *len < N => {
                items[*len] = item;
                *len += 1;
                return;
            }
            VecRepr::Inline { items, .. } => {
                let mut all = Vec::with_capacity(2 * N);
                all.extend(items.iter_mut().map(std::mem::take));
                all.push(item);
                all
            }
            VecRepr::Heap(all) => {
                all.push(item);
                return;
            }
        };
        self.0 = VecRepr::Heap(spilled);
    }

    /// Whether the items live on the heap (more than `N` were pushed).
    #[cfg(test)]
    fn spilled(&self) -> bool {
        matches!(self.0, VecRepr::Heap(_))
    }
}

impl<T: Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut list = InlineVec::new();
        iter.into_iter().for_each(|item| list.push(item));
        list
    }
}

impl<T, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.0 {
            VecRepr::Inline { len, items } => &items[..*len],
            VecRepr::Heap(all) => all,
        }
    }
}

impl<T, const N: usize> DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.0 {
            VecRepr::Inline { len, items } => &mut items[..*len],
            VecRepr::Heap(all) => all,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn both_types_are_as_small_as_what_they_replace() {
        assert_eq!(std::mem::size_of::<InlineStr>(), 24);
        assert_eq!(std::mem::size_of::<BufList>(), 24);
    }

    #[test]
    fn short_strings_stay_inline_and_long_ones_spill() {
        let fits = "x".repeat(INLINE_STR_CAP);
        let over = "x".repeat(INLINE_STR_CAP + 1);
        assert!(!InlineStr::from(fits.as_str()).spilled());
        assert!(InlineStr::from(over.as_str()).spilled());
        assert!(!InlineStr::from(fits.clone()).spilled());
        assert!(InlineStr::from(over.clone()).spilled());
        assert_eq!(InlineStr::from(over.as_str()), over);
        // Multi-byte characters count in bytes.
        let wide = "é".repeat(INLINE_STR_CAP / 2);
        assert!(!InlineStr::from(wide.as_str()).spilled());
        assert_eq!(InlineStr::from(wide.as_str()), wide);
    }

    #[test]
    fn formatting_spills_only_past_capacity() {
        let (i, j, k) = (12, 13, 11);
        let short = InlineStr::from(format_args!("gemm({i},{j},{k})"));
        assert!(!short.spilled());
        assert_eq!(short, "gemm(12,13,11)");
        // Crosses the capacity in the middle of an argument.
        let name = "a_rather_long_kernel_name";
        let long = InlineStr::from(format_args!("{name}#{i}/{j}"));
        assert!(long.spilled());
        assert_eq!(long, format!("{name}#{i}/{j}"));
        // A piece that lands exactly on the capacity, then more.
        let edge = "y".repeat(INLINE_STR_CAP - 2);
        let over = InlineStr::from(format_args!("{edge}{i}{j}"));
        assert!(over.spilled());
        assert_eq!(over, format!("{edge}{i}{j}"));
        let exact = InlineStr::from(format_args!("{edge}{i}"));
        assert!(!exact.spilled());
        assert_eq!(exact, format!("{edge}{i}"));
        // A literal without arguments.
        assert_eq!(InlineStr::from(format_args!("centroids")), "centroids");
    }

    #[test]
    fn bytes_display_eq_and_hash_are_the_strs() {
        let long = "k".repeat(3 * INLINE_STR_CAP);
        for s in ["", "h2d b0", "gemm(0,1)", "é∂ƒ", long.as_str()] {
            let v = InlineStr::from(s);
            assert_eq!(v.as_bytes(), s.as_bytes());
            assert_eq!(v.to_string(), s);
            assert_eq!(format!("{v:>30}"), format!("{s:>30}"));
            assert_eq!(format!("{v:?}"), format!("{s:?}"));
            assert_eq!(v, s);
            assert_eq!(v, InlineStr::from(s.to_string()));
            assert_eq!(hash_of(&v), hash_of(s));
            assert_eq!(v.len(), s.len());
        }
        assert_ne!(InlineStr::from("a"), InlineStr::from("b"));
    }

    #[test]
    fn a_long_genome_label_converts_from_its_string() {
        let genome: String = (0..40).map(|i| format!("g{i}.")).collect();
        assert!(genome.len() > INLINE_STR_CAP);
        let v = InlineStr::from(genome.clone());
        assert!(v.spilled());
        assert_eq!(v, genome);
        assert_eq!(hash_of(&v), hash_of(genome.as_str()));
    }

    #[test]
    fn buf_lists_keep_order_and_spill_past_capacity() {
        let ids = |n: usize| (0..n).map(|i| BufId(10 * i + 1)).collect::<Vec<_>>();
        for n in 0..=INLINE_BUFS + 3 {
            let list: BufList = ids(n).into_iter().collect();
            assert_eq!(&*list, ids(n).as_slice());
            assert_eq!(list.spilled(), n > INLINE_BUFS);
            assert_eq!(list.iter().count(), n);
        }
        let mut list: BufList = ids(5).into_iter().collect();
        list[4] = BufId(0);
        assert_eq!(list[4], BufId(0));
        assert_eq!(BufList::default().len(), 0);
        assert_eq!(format!("{:?}", list), format!("{:?}", &*list));
    }

    #[test]
    fn inline_vecs_keep_order_and_spill_past_capacity() {
        for n in 0..=INLINE_ACCESSES + 3 {
            let mut list: InlineVec<Option<String>, INLINE_ACCESSES> =
                (0..n).map(|i| Some(i.to_string())).collect();
            assert_eq!(list.spilled(), n > INLINE_ACCESSES);
            let want: Vec<Option<String>> = (0..n).map(|i| Some(i.to_string())).collect();
            assert_eq!(&*list, want.as_slice());
            list.reverse();
            assert_eq!(
                list.first().cloned().flatten(),
                n.checked_sub(1).map(|i| i.to_string())
            );
        }
    }
}
