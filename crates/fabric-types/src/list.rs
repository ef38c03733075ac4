//! A list that holds one item inline.
//!
//! Every transaction of the paper's workloads writes one key under one
//! endorser, and a committed transaction lives as long as its block. A
//! `Vec` costs each such list a heap chunk (and a growing one, spare
//! slots); [`InlineOne`] keeps a lone item inside itself and two or more
//! in an exact boxed slice.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// No items, one item inline, or two or more in a boxed slice of exactly
/// their number.
///
/// It reads as a slice (`Deref<Target = [T]>`). Nothing allocates while it
/// holds at most one item, an owned iteration included; a push past one
/// reallocates to the new length, so it never holds a spare slot.
///
/// ```
/// use fabric_types::list::InlineOne;
/// let mut list = InlineOne::default();
/// list.push(1);
/// list.extend([2, 3]);
/// assert_eq!(&list[..], &[1, 2, 3]);
/// assert_eq!(list.into_iter().collect::<Vec<_>>(), [1, 2, 3]);
/// ```
#[derive(Clone)]
pub struct InlineOne<T>(Repr<T>);

#[derive(Clone)]
enum Repr<T> {
    Empty,
    One(T),
    /// Never fewer than two items.
    Many(Box<[T]>),
}

impl<T> InlineOne<T> {
    /// Appends `item`.
    pub fn push(&mut self, item: T) {
        self.0 = match std::mem::take(self).0 {
            Repr::Empty => Repr::One(item),
            Repr::One(first) => Repr::Many(Box::new([first, item])),
            Repr::Many(items) => {
                let mut items = items.into_vec();
                items.reserve_exact(1);
                items.push(item);
                Repr::Many(items.into_boxed_slice())
            }
        };
    }
}

impl<T> Default for InlineOne<T> {
    fn default() -> Self {
        InlineOne(Repr::Empty)
    }
}

impl<T> Deref for InlineOne<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.0 {
            Repr::Empty => &[],
            Repr::One(item) => std::slice::from_ref(item),
            Repr::Many(items) => items,
        }
    }
}

impl<T> DerefMut for InlineOne<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::Empty => &mut [],
            Repr::One(item) => std::slice::from_mut(item),
            Repr::Many(items) => items,
        }
    }
}

impl<T> Extend<T> for InlineOne<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, items: I) {
        for item in items {
            self.push(item);
        }
    }
}

impl<T: PartialEq> PartialEq for InlineOne<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq> Eq for InlineOne<T> {}

impl<T: fmt::Debug> fmt::Debug for InlineOne<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<'a, T> IntoIterator for &'a InlineOne<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T> IntoIterator for InlineOne<T> {
    type Item = T;
    type IntoIter = IntoIter<T>;

    fn into_iter(self) -> IntoIter<T> {
        IntoIter(match self.0 {
            Repr::Empty => Items::One(None.into_iter()),
            Repr::One(item) => Items::One(Some(item).into_iter()),
            Repr::Many(items) => Items::Many(items.into_vec().into_iter()),
        })
    }
}

/// The owned iterator of an [`InlineOne`]. A lone item comes out of the
/// list's own storage, with no allocation.
#[derive(Debug)]
pub struct IntoIter<T>(Items<T>);

#[derive(Debug)]
enum Items<T> {
    One(std::option::IntoIter<T>),
    Many(std::vec::IntoIter<T>),
}

impl<T> Iterator for IntoIter<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        match &mut self.0 {
            Items::One(item) => item.next(),
            Items::Many(items) => items.next(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Whether the items live inside the list itself.
    fn held_inline<T>(list: &InlineOne<T>) -> bool {
        let start = list as *const InlineOne<T> as usize;
        let end = start + std::mem::size_of::<InlineOne<T>>();
        (start..end).contains(&(list.as_ptr() as usize))
    }

    proptest! {
        /// Any sequence of pushes, extends (by zero to three items) and
        /// clones of up to six items reads exactly like the same sequence
        /// on a `Vec`. No item
        /// is held on the heap, or moved out of it, while there is at most
        /// one; two or more are a boxed slice of exactly their number.
        #[test]
        fn model_inline_one_matches_vec(ops in vec((0u8..3, any::<u16>(), 0usize..4), 0..8)) {
            let mut list = InlineOne::default();
            let mut model: Vec<String> = Vec::new();
            for (op, x, n) in ops {
                match op {
                    0 if model.len() < 6 => {
                        list.push(x.to_string());
                        model.push(x.to_string());
                    }
                    1 => {
                        let items: Vec<String> = (0..n.min(6 - model.len()))
                            .map(|i| x.wrapping_add(i as u16).to_string())
                            .collect();
                        list.extend(items.clone());
                        model.extend(items);
                    }
                    2 => list = list.clone(),
                    _ => {}
                }
                prop_assert_eq!(list.len(), model.len());
                prop_assert_eq!(&list[..], &model[..]);
                for (i, item) in model.iter().enumerate() {
                    prop_assert_eq!(&list[i], item);
                }
                let borrowed: Vec<&String> = (&list).into_iter().collect();
                prop_assert_eq!(borrowed, model.iter().collect::<Vec<_>>());
                let owned = list.clone().into_iter();
                prop_assert_eq!(matches!(owned.0, Items::One(_)), model.len() <= 1);
                prop_assert_eq!(owned.collect::<Vec<_>>(), model.clone());
                prop_assert_eq!(format!("{list:?}"), format!("{model:?}"));
                prop_assert!(list == list.clone());
                let mut longer = list.clone();
                longer.push(String::new());
                prop_assert!(list != longer);
                match (&list.0, model.len()) {
                    (Repr::Empty, 0) => {}
                    (Repr::One(_), 1) => prop_assert!(held_inline(&list)),
                    (Repr::Many(items), n) => prop_assert!(n >= 2 && items.len() == n),
                    (_, n) => prop_assert!(false, "wrong form for {n} items"),
                }
            }
        }
    }
}
