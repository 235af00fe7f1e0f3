//! Stand-in for `serde_derive`. The stand-in `serde` implements its marker
//! traits for every type, so the derives only have to exist and to accept
//! `#[serde(..)]` helper attributes; they emit no code and parse nothing.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
